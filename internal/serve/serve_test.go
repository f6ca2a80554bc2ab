package serve

// The request-level harness of PR 10: happy-path responses must be
// bit-identical to the one-shot CLI codecs at every worker count,
// a client disconnect must stop the sweep without leaking goroutines
// or poisoning the shared caches, admission overflow must reject
// deterministically with 429/Retry-After, and N tenants hammering one
// engine must each see results identical to a serial single-tenant run
// (the -race leg of this file is the multi-tenant single-cache safety
// proof of DESIGN.md §14).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/obs"
	"silvervale/internal/ted"
)

const (
	// serveApp is the workhorse fixture: the Fortran corpus is small
	// enough that every sweep in this file stays cheap under -race too.
	serveApp  = "babelstream-fortran"
	serveBase = "f-sequential"
	// phiApp exercises the C++ path (NavChart requires the serial base
	// model); the phi test skips under -race, see race_on_test.go.
	phiApp = "babelstream"
)

// newServer builds a daemon over a fresh environment.
func newServer(t testing.TB, workers, maxInflight, maxQueue int) *Server {
	t.Helper()
	return New(Config{
		Env:         experiments.NewEnvWorkers(workers),
		MaxInflight: maxInflight,
		MaxQueue:    maxQueue,
	})
}

func matrixBody(app, metric string) string {
	return fmt.Sprintf(`{"app":%q,"metric":%q}`, app, metric)
}

// post drives one in-process request through the full handler chain
// (mux, accounting, admission, codec) without a TCP listener.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// Serial reference renderings, memoised across tests: each is a pure
// function of the corpus, computed once on a fresh single-worker
// environment — exactly what the one-shot CLI produces.
var (
	refMu    sync.Mutex
	refCache = map[string][]byte{}
)

func ref(t testing.TB, key string, build func(env *experiments.Env, buf *bytes.Buffer) error) []byte {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if b, ok := refCache[key]; ok {
		return b
	}
	var buf bytes.Buffer
	if err := build(experiments.NewEnvWorkers(1), &buf); err != nil {
		t.Fatalf("serial reference %s: %v", key, err)
	}
	refCache[key] = buf.Bytes()
	return refCache[key]
}

// matrixRef renders the serial reference for POST /v1/matrix — the same
// bytes `matrix -metric <m> -json` writes for the same app. It renders
// through encodeIndented, not MatrixPayload.WriteJSON, so the served
// bytes are pinned to encoding/json rather than to the writer under test.
func matrixRef(t testing.TB, app, metric string) []byte {
	return ref(t, "matrix/"+app+"/"+metric, func(env *experiments.Env, buf *bytes.Buffer) error {
		m, order, err := env.Matrix(app, metric)
		if err != nil {
			return err
		}
		idxs, _, err := env.Indexes(app)
		if err != nil {
			return err
		}
		return encodeIndented(buf, BuildMatrixPayload(app, metric, order, m, idxs))
	})
}

// fromBaseRef renders the serial reference for POST /v1/frombase.
func fromBaseRef(t testing.TB, app, base, metric string) []byte {
	return ref(t, "frombase/"+app+"/"+base+"/"+metric, func(env *experiments.Env, buf *bytes.Buffer) error {
		idxs, _, err := env.Indexes(app)
		if err != nil {
			return err
		}
		values, order, err := env.FromBaseCtx(context.Background(), app, base, metric)
		if err != nil {
			return err
		}
		return encodeIndented(buf, BuildFromBasePayload(app, base, metric, order, values, idxs[base]))
	})
}

// phiRef renders the serial reference for POST /v1/phi — the same bytes
// `phi -json` writes.
func phiRef(t testing.TB, app string) []byte {
	return ref(t, "phi/"+app, func(env *experiments.Env, buf *bytes.Buffer) error {
		ch, err := env.NavChart(app)
		if err != nil {
			return err
		}
		return ch.WriteJSON(buf)
	})
}

// waitStats polls the server's accounting until cond holds.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats = %+v", what, s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitGoroutines waits for the goroutine count to settle back to the
// pre-test level (small slack for runtime helpers); the leak fence of
// the cancellation tests.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after settling window", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMatrixByteIdenticalAcrossWorkers: the served matrix payload is
// byte-identical to the serial CLI rendering at 1/2/4/8 workers, cold
// and warm (the warm pass reads the memoised cells through the same
// codec, and does no engine work: no cell recomputes, no TED runs), and
// no request errs, is rejected or is canceled.
func TestMatrixByteIdenticalAcrossWorkers(t *testing.T) {
	want := matrixRef(t, serveApp, core.MetricTsem)
	for _, workers := range []int{1, 2, 4, 8} {
		s := newServer(t, workers, 2, 8)
		for _, pass := range []string{"cold", "warm"} {
			eng := s.env.Engine()
			incr0, misses0 := eng.IncrStats(), eng.CacheStats().Misses
			w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem))
			if w.Code != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d: %s", workers, pass, w.Code, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("workers=%d %s: content type %q", workers, pass, ct)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("workers=%d %s: served matrix differs from serial CLI rendering", workers, pass)
			}
			d := eng.IncrStats().Delta(incr0)
			if pass == "warm" && (d.CellsRecomputed != 0 || d.UnitsReparsed != 0 || eng.CacheStats().Misses != misses0) {
				t.Errorf("workers=%d warm: request did engine work: %+v, %d TED misses",
					workers, d, eng.CacheStats().Misses-misses0)
			}
		}
		if st := s.Stats(); st.Errors != 0 || st.Rejected != 0 || st.Canceled != 0 {
			t.Errorf("workers=%d: daemon saw failures: %+v", workers, st)
		}
	}
}

// TestFromBaseByteIdentical: same contract for the migration sweep.
func TestFromBaseByteIdentical(t *testing.T) {
	want := fromBaseRef(t, serveApp, serveBase, core.MetricTsem)
	for _, workers := range []int{1, 4} {
		s := newServer(t, workers, 2, 8)
		w := post(s, "/v1/frombase",
			fmt.Sprintf(`{"app":%q,"base":%q,"metric":%q}`, serveApp, serveBase, core.MetricTsem))
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("workers=%d: served frombase differs from serial CLI rendering", workers)
		}
	}
}

// TestPhiByteIdentical: the served navigation chart is the exact
// `phi -json` payload. C++ fixtures only, so the plain suite carries it.
func TestPhiByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("C++ phi sweep is too slow under -race; plain suite covers it")
	}
	want := phiRef(t, phiApp)
	s := newServer(t, 2, 2, 8)
	w := post(s, "/v1/phi", fmt.Sprintf(`{"app":%q}`, phiApp))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("served phi chart differs from `phi -json` rendering")
	}
}

// TestPhiSourceIsPerRequest: a request's phi_source applies to that
// request only. A measured chart followed by a request that names no
// source must return the daemon's default, modeled chart.
func TestPhiSourceIsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("C++ phi sweep is too slow under -race; plain suite covers it")
	}
	want := phiRef(t, phiApp)
	s := newServer(t, 2, 2, 8)
	w := post(s, "/v1/phi", fmt.Sprintf(`{"app":%q,"phi_source":"measured"}`, phiApp))
	if w.Code != http.StatusOK {
		t.Fatalf("measured: status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"phi_source": "measured"`) {
		t.Fatalf("measured request did not get a measured chart: %.200s", w.Body)
	}
	w = post(s, "/v1/phi", fmt.Sprintf(`{"app":%q}`, phiApp))
	if w.Code != http.StatusOK {
		t.Fatalf("default: status %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("request without phi_source after a measured one differs from the modeled chart:\n%.300s", w.Body)
	}
}

// TestSweepStreamsPerMetricLines: /v1/sweep streams one NDJSON line per
// metric, in request order, each carrying the exact matrix the one-shot
// path computes.
func TestSweepStreamsPerMetricLines(t *testing.T) {
	metrics := []string{core.MetricTsem, core.MetricTsrc}
	s := newServer(t, 2, 2, 8)
	w := post(s, "/v1/sweep",
		fmt.Sprintf(`{"app":%q,"metrics":[%q,%q]}`, serveApp, metrics[0], metrics[1]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(metrics) {
		t.Fatalf("got %d NDJSON lines, want %d: %s", len(lines), len(metrics), w.Body)
	}
	for i, line := range lines {
		var got sweepLine
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got.Metric != metrics[i] || got.App != serveApp {
			t.Fatalf("line %d is %s/%s, want %s/%s", i, got.App, got.Metric, serveApp, metrics[i])
		}
		var want MatrixPayload
		if err := json.Unmarshal(matrixRef(t, serveApp, metrics[i]), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matrix, want.Matrix) || !reflect.DeepEqual(got.Order, want.Order) {
			t.Errorf("line %d: streamed matrix differs from serial reference", i)
		}
	}
}

// TestMidSweepCancellation: a client disconnect mid-request stops the
// engine (zero further task grants — the context is canceled before the
// sweep's first grant, the bounded-grant contract itself is pinned in
// internal/core's cancellation tests), records exactly one canceled
// request, leaks no goroutines, and leaves the shared caches consistent:
// the follow-up request returns the exact serial rendering.
func TestMidSweepCancellation(t *testing.T) {
	want := matrixRef(t, serveApp, core.MetricTsem)
	s := newServer(t, 2, 1, 4)
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.holdSweep = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/matrix",
		strings.NewReader(matrixBody(serveApp, core.MetricTsem))).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	<-started // the request holds its slot, about to start the sweep
	cancel()  // client disconnects
	close(gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled request never returned")
	}
	s.holdSweep = nil

	if st := s.Stats(); st.Canceled != 1 || st.Inflight != 0 || st.Queued != 0 || st.Errors != 0 {
		t.Fatalf("stats after cancel = %+v", st)
	}
	waitGoroutines(t, before)

	// The canceled sweep published nothing partial, so the next request
	// computes from consistent caches and matches the serial rendering.
	w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem))
	if w.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("post-cancellation sweep differs from serial rendering")
	}
	waitGoroutines(t, before)
}

// TestQueuedClientDisconnectFreesSlot: a client that goes away while
// waiting in the admission queue is counted as canceled, never as an
// error, and its queue position is freed immediately.
func TestQueuedClientDisconnectFreesSlot(t *testing.T) {
	s := newServer(t, 1, 1, 2)
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.holdSweep = func() {
		started <- struct{}{}
		<-gate
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // fills the single in-flight slot
		defer wg.Done()
		post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem))
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() { // queues behind it, then disconnects
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/matrix",
			strings.NewReader(matrixBody(serveApp, core.MetricTsem))).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	waitStats(t, s, "request to queue", func(st Stats) bool { return st.Queued == 1 })
	cancel()
	waitStats(t, s, "queued cancel", func(st Stats) bool { return st.Canceled == 1 && st.Queued == 0 })
	close(gate)
	wg.Wait()
	if st := s.Stats(); st.Requests != 2 || st.Rejected != 0 || st.Errors != 0 || st.Inflight != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestAdmissionOverflowDeterministic: with the daemon pinned at full
// capacity (MaxInflight 1 + MaxQueue q), k concurrent requests yield
// exactly k-(1+q) rejections — 429 with a Retry-After hint — regardless
// of scheduling, and once the pin lifts the queue drains to completion
// with exact results. No starvation, no lost slots. MaxQueue 0 means no
// queue: every request beyond the one in flight is rejected.
func TestAdmissionOverflowDeterministic(t *testing.T) {
	want := matrixRef(t, serveApp, core.MetricTsem)
	for _, queue := range []int{1, 0} {
		t.Run(fmt.Sprintf("queue=%d", queue), func(t *testing.T) {
			s := newServer(t, 1, 1, queue)
			// Warm the engine so drained sweeps are memo reads.
			if w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem)); w.Code != http.StatusOK {
				t.Fatalf("warm-up status %d: %s", w.Code, w.Body)
			}
			gate := make(chan struct{})
			started := make(chan struct{}, 8)
			s.holdSweep = func() {
				started <- struct{}{}
				<-gate
			}

			const k = 5
			admitted := 1 + queue // one in flight, the rest queued
			results := make(chan *httptest.ResponseRecorder, k)
			for i := 0; i < k; i++ {
				go func() { results <- post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem)) }()
			}
			<-started // one request holds the slot; queue more wait

			// The overflow rejections return while the daemon stays
			// pinned; the admitted requests cannot finish before the gate
			// opens, so every early response must be a 429.
			for i := 0; i < k-admitted; i++ {
				select {
				case w := <-results:
					if w.Code != http.StatusTooManyRequests {
						t.Fatalf("overflow response %d: status %d: %s", i, w.Code, w.Body)
					}
					if got := w.Header().Get("Retry-After"); got != "1" {
						t.Errorf("429 Retry-After = %q, want \"1\"", got)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("only %d of %d rejections arrived", i, k-admitted)
				}
			}
			close(gate) // lift the pin: the queue must drain
			for i := 0; i < admitted; i++ {
				select {
				case w := <-results:
					if w.Code != http.StatusOK {
						t.Fatalf("drained sweep status %d: %s", w.Code, w.Body)
					}
					if !bytes.Equal(w.Body.Bytes(), want) {
						t.Error("drained sweep differs from serial rendering")
					}
				case <-time.After(30 * time.Second):
					t.Fatal("queue did not drain")
				}
			}
			if st := s.Stats(); st.Requests != k+1 || st.Rejected != int64(k-admitted) || st.Inflight != 0 || st.Queued != 0 || st.Canceled != 0 {
				t.Fatalf("stats after drain = %+v", st)
			}
		})
	}
}

// TestMultiTenantSoak: soakClients tenants hammer one shared engine
// across soakApps × two metrics for soakIters rounds; every response
// must be bit-identical to the serial single-tenant rendering and the
// run must finish with no rejections and no errors. Under -race this is
// the multi-tenant single-cache safety proof the tentpole claims.
func TestMultiTenantSoak(t *testing.T) {
	metrics := []string{core.MetricTsem, core.MetricTsrc}
	type job struct {
		app, metric string
		want        []byte
	}
	var jobs []job
	for _, app := range soakApps {
		for _, m := range metrics {
			jobs = append(jobs, job{app, m, matrixRef(t, app, m)})
		}
	}
	s := newServer(t, 4, 2, soakClients*soakIters*len(jobs))
	var wg sync.WaitGroup
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < soakIters; it++ {
				for _, j := range jobs {
					w := post(s, "/v1/matrix", matrixBody(j.app, j.metric))
					if w.Code != http.StatusOK {
						t.Errorf("client %d %s/%s: status %d: %s", c, j.app, j.metric, w.Code, w.Body)
						return
					}
					if !bytes.Equal(w.Body.Bytes(), j.want) {
						t.Errorf("client %d %s/%s: response differs from serial rendering", c, j.app, j.metric)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if st := s.Stats(); st.Rejected != 0 || st.Errors != 0 || st.Canceled != 0 || st.Inflight != 0 {
		t.Fatalf("soak stats = %+v", st)
	}
}

// TestRequestHardening: every malformed request is a clean 4xx with a
// one-line JSON error body — never a panic, never a 5xx — and failed
// requests release their admission slots.
func TestRequestHardening(t *testing.T) {
	s := newServer(t, 1, 1, 1)
	cases := []struct {
		name, method, path, ct, body string
		want                         int
	}{
		{"get on sweep endpoint", http.MethodGet, "/v1/matrix", "", "", http.StatusMethodNotAllowed},
		{"wrong content type", http.MethodPost, "/v1/matrix", "text/plain", `{"app":"x"}`, http.StatusUnsupportedMediaType},
		{"malformed content type", http.MethodPost, "/v1/matrix", "application/;;", `{"app":"x"}`, http.StatusUnsupportedMediaType},
		{"invalid json", http.MethodPost, "/v1/matrix", "application/json", `{"app":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/matrix", "application/json", `{"app":"tealeaf","nope":1}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/matrix", "application/json", `{"app":"tealeaf"}{}`, http.StatusBadRequest},
		{"wrong field type", http.MethodPost, "/v1/matrix", "application/json", `{"app":3}`, http.StatusBadRequest},
		{"empty app", http.MethodPost, "/v1/matrix", "application/json", `{}`, http.StatusBadRequest},
		{"unknown app", http.MethodPost, "/v1/matrix", "application/json", `{"app":"no-such-app"}`, http.StatusBadRequest},
		{"unknown metric", http.MethodPost, "/v1/matrix", "application/json", matrixBody(serveApp, "nope"), http.StatusBadRequest},
		{"unknown base", http.MethodPost, "/v1/frombase", "application/json",
			fmt.Sprintf(`{"app":%q,"base":"nope"}`, serveApp), http.StatusBadRequest},
		{"unknown phi source", http.MethodPost, "/v1/phi", "application/json",
			fmt.Sprintf(`{"app":%q,"phi_source":"nope"}`, phiApp), http.StatusBadRequest},
		{"unknown diverge ids", http.MethodPost, "/v1/diverge", "application/json", `{"a":"x","b":"y"}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/v1/matrix", "application/json",
			`{"app":"` + strings.Repeat("x", MaxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"invalid upload", http.MethodPost, "/v1/codebases", "application/json",
			`{"app":"a","model":"m","lang":"cobol","files":{"f":""},"units":[{"file":"f"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.ct != "" {
				req.Header.Set("Content-Type", tc.ct)
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body)
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &errBody); err != nil || errBody.Error == "" {
				t.Fatalf("error body is not {\"error\":...}: %q (%v)", w.Body, err)
			}
		})
	}
	// Client errors are not server errors, and every failed request
	// released its admission capacity.
	if st := s.Stats(); st.Errors != 0 || st.Rejected != 0 || st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("stats after hardening sweep = %+v", st)
	}
}

// TestHealthAndStatsEndpoints: the unauthenticated always-on surface.
// With a recorder attached at construction, every typed stats view —
// serve.Stats, and the engine's CacheStats, IncrStats and TierStats —
// agrees field for field with the recorder counter of its stable name
// after an exact sweep, a tiered sweep and an incremental index.
func TestHealthAndStatsEndpoints(t *testing.T) {
	rec := obs.NewRecorder()
	env := experiments.NewEnvObs(1, rec)
	s := New(Config{Env: env, Recorder: rec, MaxInflight: 1, MaxQueue: 1})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", w.Code, w.Body)
	}
	post(s, "/v1/matrix", `{"app":"no-such-app"}`) // one counted request
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Fatalf("stats payload = %+v, want 1 request", st)
	}
	if got := st.Line(); !strings.Contains(got, "serve: 1 requests") {
		t.Fatalf("stats line = %q", got)
	}

	if w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem)); w.Code != http.StatusOK {
		t.Fatalf("exact sweep = %d %s", w.Code, w.Body)
	}
	env.SetTierPolicy(ted.TierPolicy{Budget: ted.ScreeningBudget})
	if w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem)); w.Code != http.StatusOK {
		t.Fatalf("tiered sweep = %d %s", w.Code, w.Body)
	}
	app, err := corpus.AppByName(serveApp)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.ModelsFor(app)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Engine().IndexCodebaseIncremental(cb, nil, core.Options{}); err != nil {
		t.Fatal(err)
	}

	eng := env.Engine()
	sv, cs, is, ts := s.Stats(), eng.CacheStats(), eng.IncrStats(), eng.TierStats()
	if ts.Pairs == 0 || cs.SubtreeMisses == 0 || is.UnitsReparsed == 0 {
		t.Fatalf("sweeps left counters idle: tier %+v, incr %+v", ts, is)
	}
	got := rec.Snapshot().Counters
	for name, want := range map[string]int64{
		"serve.requests": sv.Requests,
		"serve.inflight": sv.Inflight,
		"serve.rejected": sv.Rejected,
		"serve.canceled": sv.Canceled,
		"serve.errors":   sv.Errors,

		"ted.cache.hits":             int64(cs.Hits),
		"ted.cache.misses":           int64(cs.Misses),
		"ted.cache.identity":         int64(cs.Identity),
		"ted.cache.symmetric":        int64(cs.Symmetric),
		"ted.bound_pruned":           int64(cs.BoundPruned),
		"ted.flat_memo.hits":         int64(cs.FlatHits),
		"ted.flat_memo.misses":       int64(cs.FlatMisses),
		"ted.subtree_blocks_hit":     int64(cs.SubtreeHits),
		"ted.subtree_blocks_miss":    int64(cs.SubtreeMisses),
		"ted.subtree_blocks_evicted": int64(cs.SubtreeEvicted),
		"ted.ckpt_rows_hit":          int64(cs.CheckpointHits),
		"ted.ckpt_rows_miss":         int64(cs.CheckpointMisses),
		"ted.ckpt_rows_evicted":      int64(cs.CheckpointEvicted),

		"incr.units_reused":              int64(is.UnitsReused),
		"incr.units_reparsed":            int64(is.UnitsReparsed),
		"incr.cells_reused":              int64(is.CellsReused),
		"incr.cells_recomputed":          int64(is.CellsRecomputed),
		"incr.subtree_blocks_reused":     int64(is.SubtreeBlocksReused),
		"incr.subtree_blocks_recomputed": int64(is.SubtreeBlocksRecomputed),

		"ted.tier_pairs":     int64(ts.Pairs),
		"ted.tier_exact":     int64(ts.Exact),
		"ted.tier_estimated": int64(ts.Estimated),
		"ted.tier_far":       int64(ts.Far),
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("recorder %s = %d (present %v), typed stats say %d", name, v, ok, want)
		}
	}
}

// uploadBody renders a corpus codebase as a POST /v1/codebases payload.
func uploadBody(t *testing.T, cb *corpus.Codebase) string {
	t.Helper()
	units := make([]map[string]string, 0, len(cb.Units))
	for _, u := range cb.Units {
		units = append(units, map[string]string{"file": u.File, "role": u.Role})
	}
	payload := map[string]any{
		"app": cb.App, "model": string(cb.Model), "lang": string(cb.Lang),
		"files": cb.Files, "units": units,
	}
	if len(cb.System) > 0 {
		payload["system"] = cb.System
	}
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestUploadAndDivergeMatchesEngine: uploading two codebases and
// diverging them over HTTP returns exactly what a direct engine call
// computes, and re-uploading identical content is idempotent (same
// content-address id).
func TestUploadAndDivergeMatchesEngine(t *testing.T) {
	app, err := corpus.AppByName(serveApp)
	if err != nil {
		t.Fatal(err)
	}
	models := corpus.ModelsFor(app)
	cbA, err := corpus.Generate(app, models[0])
	if err != nil {
		t.Fatal(err)
	}
	cbB, err := corpus.Generate(app, models[1])
	if err != nil {
		t.Fatal(err)
	}

	s := newServer(t, 1, 2, 8)
	upload := func(cb *corpus.Codebase) string {
		w := post(s, "/v1/codebases", uploadBody(t, cb))
		if w.Code != http.StatusOK {
			t.Fatalf("upload %s: status %d: %s", cb.Model, w.Code, w.Body)
		}
		var resp struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.ID == "" {
			t.Fatalf("upload %s: bad response %q (%v)", cb.Model, w.Body, err)
		}
		return resp.ID
	}
	idA, idB := upload(cbA), upload(cbB)
	if again := upload(cbA); again != idA {
		t.Fatalf("re-upload changed id: %s -> %s", idA, again)
	}

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/codebases", nil))
	var listing struct {
		Codebases []registryEntry `json:"codebases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Codebases) != 2 {
		t.Fatalf("listing has %d entries, want 2: %s", len(listing.Codebases), w.Body)
	}

	w2 := post(s, "/v1/diverge",
		fmt.Sprintf(`{"a":%q,"b":%q,"metric":%q}`, idA, idB, core.MetricTsem))
	if w2.Code != http.StatusOK {
		t.Fatalf("diverge status %d: %s", w2.Code, w2.Body)
	}
	var got struct {
		Raw  float64 `json:"raw"`
		DMax float64 `json:"dmax"`
		Norm float64 `json:"norm"`
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	engine := core.NewEngine(1)
	ia, err := engine.IndexCodebase(cbA, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := engine.IndexCodebase(cbB, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := engine.Diverge(ia, ib, core.MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw != d.Raw || got.DMax != d.DMax || got.Norm != d.Norm {
		t.Fatalf("served divergence %+v != engine %+v", got, d)
	}
}
