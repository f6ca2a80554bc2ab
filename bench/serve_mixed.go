package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/obs"
	"silvervale/internal/serve"
)

// serve_mixed: the daemon under a closed loop. A memory-only serve.Server
// listens on a loopback ephemeral port; set-up warms babelstream and
// uploads its ten ports. Then serveClients keep-alive clients send
// back-to-back requests: mostly warm POST /v1/matrix, some /v1/diverge on
// uploaded pairs, and a few uploads of a new seeded mutation of a port,
// each followed by its diverge against the base port.

const (
	serveClients = 2
	// serveSetupRepeats is how many daemons an untraced run sets up;
	// setup_s is the median.
	serveSetupRepeats = 3
	// serveRate is about how many requests per second the two clients
	// complete at 2 workers when the benchmark was introduced; a run sends
	// --seconds × serveRate requests, so every seed applies the same mix.
	serveRate = 550
	// Request mix, in percent: matrix, diverge, upload (+ its diverge).
	pctMatrix  = 85
	pctDiverge = 12
)

// spanHeader carries the client's span id to the handler wrapper, so the
// handler span nests under the request that caused it.
const spanHeader = "X-Bench-Span"

type serveMixed struct {
	cfg     config
	res     *result
	tr      *tracer
	env     *experiments.Env
	srv     *serve.Server
	hs      *http.Server
	done    chan error
	url     string
	client  *http.Client
	order   []string
	ids     map[string]string // port -> registry id
	matrix  []byte            // expected /v1/matrix body
	diverge map[string][]byte // "a|b" -> expected /v1/diverge body

	mu        sync.Mutex
	mutations []mutation
}

// mutation is one uploaded variant, checked against an in-process
// recomputation after the measured phase.
type mutation struct {
	cb     *corpus.Codebase
	base   string
	id     string
	answer []byte
}

// newServeMixed starts the daemon and runs the set-up: a cold babelstream
// matrix request and the ten port uploads.
func newServeMixed(cfg config, res *result, tr *tracer, rec *obs.Recorder) (*serveMixed, error) {
	s := &serveMixed{cfg: cfg, res: res, tr: tr, ids: map[string]string{},
		diverge: map[string][]byte{}, done: make(chan error, 1)}
	s.env = experiments.NewEnvObs(cfg.workers, rec)
	s.srv = serve.New(serve.Config{Env: s.env, Recorder: rec, MaxInflight: cfg.workers, MaxQueue: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, DisableCompression: true}}

	body, status, err := s.post(0, "/v1/matrix", map[string]string{"app": appBabel, "metric": metric})
	if err != nil || status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("cold matrix request: status %d: %v", status, err)
	}
	m, order, err := s.env.Matrix(appBabel, metric)
	if err != nil {
		s.stop()
		return nil, err
	}
	idxs, _, err := s.env.Indexes(appBabel)
	if err != nil {
		s.stop()
		return nil, err
	}
	var want bytes.Buffer
	if err := serve.BuildMatrixPayload(appBabel, metric, order, m, idxs).WriteJSON(&want); err != nil {
		s.stop()
		return nil, err
	}
	s.matrix, s.order = want.Bytes(), order
	res.attempted++
	checkGolden(res, "cold matrix", map[string][2]string{
		"babelstream tsem matrix": {matrixDigest(order, m), goldenBabelstreamTsem},
		"served matrix body":      {bytesDigest(body), bytesDigest(s.matrix)},
	})
	app, err := corpus.AppByName(appBabel)
	if err != nil {
		s.stop()
		return nil, err
	}
	for _, port := range order {
		cb, err := corpus.Generate(app, corpus.Model(port))
		if err != nil {
			s.stop()
			return nil, err
		}
		id, err := s.upload(0, cb)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.ids[port] = id
	}
	// Expected answers for every ordered pair of uploaded ports.
	for _, a := range order {
		for _, b := range order {
			if a == b {
				continue
			}
			d, err := s.env.Engine().Diverge(idxs[a], idxs[b], metric)
			if err != nil {
				s.stop()
				return nil, err
			}
			s.diverge[s.ids[a]+"|"+s.ids[b]] = divergeBody(s.ids[a], s.ids[b], d)
		}
	}
	return s, nil
}

// divergeBody renders a /v1/diverge answer the way the daemon does.
func divergeBody(a, b string, d core.Divergence) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	// Encoding a map of strings and floats cannot fail.
	_ = enc.Encode(map[string]any{"a": a, "b": b, "metric": metric, "raw": d.Raw, "dmax": d.DMax, "norm": d.Norm})
	return buf.Bytes()
}

// handle wraps the daemon's ServeHTTP in the benchmark's handler span.
func (s *serveMixed) handle(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	sp := s.tr.begin(parent, "serve.handler")
	s.srv.ServeHTTP(w, r)
	s.tr.end(sp)
}

// stop shuts the daemon down and waits for its accept loop to exit.
func (s *serveMixed) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// post sends one JSON request and returns the response body and status.
func (s *serveMixed) post(span int, path string, v any) ([]byte, int, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// upload registers a codebase and checks the returned content address;
// a refused upload or a wrong address fails the operation.
func (s *serveMixed) upload(span int, cb *corpus.Codebase) (string, error) {
	units := make([]map[string]string, len(cb.Units))
	for i, u := range cb.Units {
		units[i] = map[string]string{"file": u.File, "role": u.Role}
	}
	body, status, err := s.post(span, "/v1/codebases", map[string]any{
		"app": cb.App, "model": string(cb.Model), "lang": string(cb.Lang),
		"files": cb.Files, "units": units, "system": cb.System,
	})
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	h := core.CodebaseContentHash(cb)
	want := fmt.Sprintf("%016x%016x", h.H1, h.H2)
	ok := status == http.StatusOK && json.Unmarshal(body, &out) == nil && out.ID == want
	s.check(ok, "upload %s/%s: status %d, id %q, want %s", cb.App, cb.Model, status, out.ID, want)
	return want, nil
}

// serveReq is one generated request.
type serveReq struct {
	kind string           // "matrix", "diverge" or "upload"
	a, b string           // diverge: the two uploaded ports
	mut  *corpus.Codebase // upload: the mutated port
	base string           // upload: the port it was mutated from
}

// requests generates one client's request sequence from the seed alone.
func (s *serveMixed) requests(client, n int) ([]serveReq, error) {
	rng := rand.New(rand.NewSource(s.cfg.seed*1000 + int64(client)))
	app, err := corpus.AppByName(appBabel)
	if err != nil {
		return nil, err
	}
	reqs := make([]serveReq, 0, n)
	muts := 0
	for len(reqs) < n {
		switch r := rng.Intn(100); {
		case r < pctMatrix:
			reqs = append(reqs, serveReq{kind: "matrix"})
		case r < pctMatrix+pctDiverge:
			i := rng.Intn(len(s.order))
			j := (i + 1 + rng.Intn(len(s.order)-1)) % len(s.order)
			reqs = append(reqs, serveReq{kind: "diverge", a: s.order[i], b: s.order[j]})
		default:
			port := s.order[rng.Intn(len(s.order))]
			cb, err := corpus.Generate(app, corpus.Model(port))
			if err != nil {
				return nil, err
			}
			u := cb.Units[rng.Intn(len(cb.Units))].File
			muts++
			cb.Files[u] += fmt.Sprintf("\ndouble bench_mut_%d_%d(double x) {\n\treturn x * %d.0;\n}\n", client, muts, muts+2)
			reqs = append(reqs, serveReq{kind: "upload", mut: cb, base: port})
		}
	}
	return reqs, nil
}

// latencies collects one client's per-class latencies.
type latencies struct {
	matrix, diverge, upload samples
	requests                int
}

// runClient sends reqs back to back and records latencies and failures.
func (s *serveMixed) runClient(reqs []serveReq, lat *latencies) error {
	for _, q := range reqs {
		t0 := time.Now()
		switch q.kind {
		case "matrix":
			root := s.tr.begin(0, "op.matrix")
			body, status, err := s.post(root, "/v1/matrix", map[string]string{"app": appBabel, "metric": metric})
			s.tr.end(root)
			if err != nil {
				return err
			}
			lat.matrix = append(lat.matrix, time.Since(t0))
			lat.requests++
			s.check(status == http.StatusOK && bytes.Equal(body, s.matrix), "matrix body differs from the direct render (status %d)", status)
		case "diverge":
			a, b := s.ids[q.a], s.ids[q.b]
			root := s.tr.begin(0, "op.diverge")
			body, status, err := s.post(root, "/v1/diverge", map[string]string{"a": a, "b": b, "metric": metric})
			s.tr.end(root)
			if err != nil {
				return err
			}
			lat.diverge = append(lat.diverge, time.Since(t0))
			lat.requests++
			s.check(status == http.StatusOK && bytes.Equal(body, s.diverge[a+"|"+b]), "diverge %s %s answer differs (status %d)", q.a, q.b, status)
		case "upload":
			root := s.tr.begin(0, "op.upload")
			id, err := s.upload(root, q.mut)
			if err != nil {
				s.tr.end(root)
				return err
			}
			a := s.ids[q.base]
			body, status, err := s.post(root, "/v1/diverge", map[string]string{"a": a, "b": id, "metric": metric})
			s.tr.end(root)
			if err != nil {
				return err
			}
			lat.upload = append(lat.upload, time.Since(t0))
			lat.requests += 2
			s.check(status == http.StatusOK, "mutation diverge status %d", status)
			// The same pair asked again must get the identical answer.
			t1 := time.Now()
			root = s.tr.begin(0, "op.diverge")
			again, status, err := s.post(root, "/v1/diverge", map[string]string{"a": a, "b": id, "metric": metric})
			s.tr.end(root)
			if err != nil {
				return err
			}
			lat.diverge = append(lat.diverge, time.Since(t1))
			lat.requests++
			s.check(status == http.StatusOK && bytes.Equal(again, body), "repeated mutation diverge differs")
			s.mu.Lock()
			s.mutations = append(s.mutations, mutation{cb: q.mut, base: q.base, id: id, answer: body})
			s.mu.Unlock()
		}
	}
	return nil
}

// check counts one checked response; a false ok fails it.
func (s *serveMixed) check(ok bool, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.attempted++
	if !ok {
		s.res.fail(format, args...)
	}
}

// phase runs every client's sequence concurrently and merges latencies.
func (s *serveMixed) phase(perClient int) (latencies, time.Duration, error) {
	seqs := make([][]serveReq, serveClients)
	for c := range seqs {
		var err error
		if seqs[c], err = s.requests(c, perClient); err != nil {
			return latencies{}, 0, err
		}
	}
	lats := make([]latencies, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.runClient(seqs[c], &lats[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all latencies
	for c := range lats {
		if errs[c] != nil {
			return latencies{}, 0, errs[c]
		}
		all.matrix = append(all.matrix, lats[c].matrix...)
		all.diverge = append(all.diverge, lats[c].diverge...)
		all.upload = append(all.upload, lats[c].upload...)
		all.requests += lats[c].requests
	}
	return all, wall, nil
}

// checkedMutations is how many uploaded mutations, evenly spaced over the
// run, checkMutations recomputes.
const checkedMutations = 8

// checkMutations recomputes a sample of uploaded mutations' diverges in
// process, on a fresh engine from a fresh index of the uploaded sources,
// and compares each with the daemon's first answer.
func (s *serveMixed) checkMutations() error {
	idxs, _, err := s.env.Indexes(appBabel)
	if err != nil {
		return err
	}
	fresh := core.NewEngine(s.cfg.workers)
	step := max(1, len(s.mutations)/checkedMutations)
	for i := 0; i < len(s.mutations); i += step {
		m := s.mutations[i]
		idx, err := fresh.IndexCodebase(m.cb, core.Options{})
		if err != nil {
			return err
		}
		d, err := fresh.Diverge(idxs[m.base], idx, metric)
		if err != nil {
			return err
		}
		s.check(bytes.Equal(divergeBody(s.ids[m.base], m.id, d), m.answer), "mutation of %s: served diverge differs from recomputation", m.base)
	}
	return nil
}

func perClient(cfg config) int {
	return max(1, int(math.Round(cfg.seconds*serveRate/serveClients)))
}

func runServeMixed(cfg config) (*result, error) {
	res := &result{}
	if cfg.trace {
		return traceServeMixed(cfg, res)
	}
	var setups []float64
	var s *serveMixed
	for i := 0; i < serveSetupRepeats; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = newServeMixed(cfg, res, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lat, wall, err := s.phase(perClient(cfg))
	if err != nil {
		s.stop()
		return nil, err
	}
	heap := heapMB()
	runtime.KeepAlive(s.srv)
	if err := s.checkMutations(); err != nil {
		s.stop()
		return nil, err
	}
	if st := s.srv.Stats(); st.Rejected+st.Errors+st.Canceled > 0 {
		s.res.fail("daemon stats: %s", st.Line())
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	rps := float64(lat.requests) / wall.Seconds()
	res.e2e = map[string]float64{
		"setup_s":            median(setups),
		"primary_gmean_ms":   lat.matrix.gmean(),
		"primary_p90_ms":     lat.matrix.pct(90),
		"secondary_gmean_ms": lat.diverge.gmean(),
		"ops_per_s":          rps,
		"heap_mb":            heap,
	}
	res.note("setup_s", median(setups), "s")
	res.note("matrix_p50_us", 1000*lat.matrix.pct(50), "us")
	res.note("matrix_gmean_us", 1000*lat.matrix.gmean(), "us")
	res.note("matrix_p90_us", 1000*lat.matrix.pct(90), "us")
	res.note("matrix_p99_us", 1000*lat.matrix.pct(99), "us")
	res.note("diverge_p50_ms", lat.diverge.pct(50), "ms")
	res.note("diverge_gmean_ms", lat.diverge.gmean(), "ms")
	res.note("diverge_p99_ms", lat.diverge.pct(99), "ms")
	res.note("upload_p50_ms", lat.upload.pct(50), "ms")
	res.note("serve_rps", rps, "1/s")
	res.note("requests", float64(lat.requests), "count")
	res.note("heap_mb", heap, "MB")
	return res, nil
}

// traceServeMixed runs the seeded request mix untraced and then traced
// (each against its own freshly set-up daemon) and reports the layers.
func traceServeMixed(cfg config, res *result) (*result, error) {
	s, err := newServeMixed(cfg, res, nil, nil)
	if err != nil {
		return nil, err
	}
	_, untraced, err := s.phase(perClient(cfg))
	if err != nil {
		s.stop()
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	tr, rec := newTracer()
	if s, err = newServeMixed(cfg, res, tr, rec); err != nil {
		return nil, err
	}
	after := tr.now()
	before, rt0 := rec.Snapshot(), readRT()
	tally := &engineTally{}
	tally.attach(s.env.Engine())
	_, traced, err := s.phase(perClient(cfg))
	if err != nil {
		s.stop()
		return nil, err
	}
	rt1 := readRT()
	tally.detach()
	if err := s.checkMutations(); err != nil {
		s.stop()
		return nil, err
	}
	l := newLayers()
	// The warm matrix handler's engine and render parts, timed directly.
	engineUS, renderUS, err := s.calibrateMatrix()
	if err != nil {
		s.stop()
		return nil, err
	}
	resp, err := s.client.Get(s.url + "/v1/codebases")
	if err != nil {
		s.stop()
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.stop()
		return nil, err
	}
	st := s.srv.Stats()
	if err := s.stop(); err != nil {
		return nil, err
	}
	var listing struct {
		Codebases []json.RawMessage `json:"codebases"`
	}
	_ = json.Unmarshal(body, &listing)

	sp := tr.splits(after)
	all := rec.Spans()
	var handler, request time.Duration
	var n int
	for _, p := range sp {
		handler += p.layers["serve.handler"]
		request += p.wall
		n += p.ops
		p.refine(all, "serve.handler", p.layers["serve.handler"], map[string]string{
			"frontend": "index.codebase", "ted": "ted.distance"})
	}
	if m := sp["op.matrix"]; m != nil {
		m.carve("serve.handler", "env.matrix", time.Duration(engineUS*float64(m.ops)*float64(time.Microsecond)))
		m.carve("serve.handler", "render.matrix_json", time.Duration(renderUS*float64(m.ops)*float64(time.Microsecond)))
	}
	programLayers(l, rec, before, allWindows(sp), tally, cfg.workers)
	benchLayers(l, sp, tr.countCalls(after))
	l["render.matrix_json_us"] = renderUS
	l["serve.handler_us"] = float64(handler) / float64(time.Microsecond) / float64(max(n, 1))
	l["serve.net_us"] = float64(request-handler) / float64(time.Microsecond) / float64(max(n, 1))
	l["serve.registry_entries"] = float64(len(listing.Codebases))
	l["serve.rejected"] = float64(st.Rejected)
	l["serve.errors"] = float64(st.Errors)
	shapes := newShapeTally()
	if err := s.shapeMutations(shapes); err != nil {
		return nil, err
	}
	shapes.fill(l)
	addRuntimeLayers(l, rt0, rt1)
	l["bench.trace_overhead"] = float64(traced) / float64(untraced)
	// Warm matrix reads should be rendering and serving; diverges the
	// frontend re-indexing both sides.
	l["split.primary_share"] = 1 - sp["op.matrix"].share("env.matrix")
	l["split.secondary_share"] = sp["op.diverge"].share("frontend")
	res.layers = l
	writeSplits(os.Stdout, cfg.workload, sp)
	return res, tr.save(cfg, sp)
}

// calibrateMatrix times the two halves of a warm matrix handler directly:
// the engine lookup (Env.MatrixCtx + IndexesCtx) and the payload render.
func (s *serveMixed) calibrateMatrix() (engineUS, renderUS float64, err error) {
	const reps = 200
	ctx := context.Background()
	var eng, ren time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		m, order, err := s.env.MatrixCtx(ctx, appBabel, metric)
		if err != nil {
			return 0, 0, err
		}
		idxs, _, err := s.env.IndexesCtx(ctx, appBabel)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := serve.BuildMatrixPayload(appBabel, metric, order, m, idxs).WriteJSON(io.Discard); err != nil {
			return 0, 0, err
		}
		eng += t1.Sub(t0)
		ren += time.Since(t1)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / reps }
	return us(eng), us(ren), nil
}

// shapeMutations tallies the tree pairs the traced diverges sent to TED:
// every uploaded mutation against its base port.
func (s *serveMixed) shapeMutations(t *shapeTally) error {
	idxs, _, err := s.env.Indexes(appBabel)
	if err != nil {
		return err
	}
	for _, m := range s.mutations {
		idx, err := core.IndexCodebase(m.cb, core.Options{Workers: s.cfg.workers})
		if err != nil {
			return err
		}
		t.addPair(idxs[m.base], idx, metric)
	}
	return nil
}
