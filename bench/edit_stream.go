package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"time"

	"silvervale/internal/cluster"
	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/ted"
	"silvervale/internal/textplot"
)

// edit_stream: the `silvervale watch` loop. A resident memory-only engine
// holds all ten tealeaf ports (the cold sweep that fills it is set-up) and
// applies a seeded stream of operations. Each operation re-indexes every
// port incrementally, sweeps the tsem matrix, and renders the heatmap and
// dendrogram watch prints. Dirty edits (a distinct appended function or a
// distinct literal in one unit of one port) dominate; reverts to base and
// no-edit re-sweeps are interleaved.

// editSetupRepeats is the number of cold sweeps an untraced run times for
// setup_s; each one is a full tealeaf DP sweep, so fewer than elsewhere.
const editSetupRepeats = 2

// roundSeconds is about how long one round of the stream takes at 2
// workers when the benchmark was introduced. A run measures whole rounds,
// --seconds/roundSeconds of them (at least one), so every run applies the
// same mix of edits whatever its seed and its speed.
const roundSeconds = 10

// editOp is one generated stream operation.
type editOp struct {
	kind string // "append", "literal", "revert" or "noedit"
	port string
	file string
	lit  int // literal site index for "literal"
	k    int // distinct edit number
}

func (op editOp) dirty() bool { return op.kind == "append" || op.kind == "literal" }

// floatLit matches the decimal literals a literal edit may change.
var floatLit = regexp.MustCompile(`[0-9]+\.[0-9]+`)

// round generates one round of the stream from rng. Every unit of every
// port gets one edit visit, in seeded order: a distinct appended
// function and a distinct value for the unit's middle decimal literal (in
// seeded order), each replacing the unit's base content, then a revert to
// base. The literal site is fixed so that every seed applies the same mix
// of edit costs.
// Half the visits, seeded, also re-sweep once without an edit. A round
// is 40 dirty edits, 20 reverts and 10 no-edit re-sweeps on tealeaf.
func (s *editStream) round(rng *rand.Rand, k *int) []editOp {
	type visit struct{ port, file string }
	var visits []visit
	for _, port := range s.order {
		for _, u := range s.cbs[port].Units {
			visits = append(visits, visit{port, u.File})
		}
	}
	rng.Shuffle(len(visits), func(i, j int) { visits[i], visits[j] = visits[j], visits[i] })
	noedit := map[int]bool{}
	for _, i := range rng.Perm(len(visits))[:len(visits)/2] {
		noedit[i] = true
	}
	var ops []editOp
	for i, ss := range visits {
		kinds := []string{"append", "literal"}
		if rng.Intn(2) == 0 {
			kinds[0], kinds[1] = kinds[1], kinds[0]
		}
		for j, kind := range kinds {
			*k++
			op := editOp{kind: kind, port: ss.port, file: ss.file, k: *k}
			if lits := s.lits[ss.port+"/"+ss.file]; kind == "literal" && len(lits) > 0 {
				op.lit = len(lits) / 2
			} else {
				op.kind = "append"
			}
			ops = append(ops, op)
			if j == 0 && noedit[i] {
				ops = append(ops, editOp{kind: "noedit"})
			}
		}
		ops = append(ops, editOp{kind: "revert", port: ss.port, file: ss.file})
	}
	return ops
}

// stream returns the run's whole operation sequence.
func (s *editStream) stream() []editOp {
	rng := rand.New(rand.NewSource(s.cfg.seed))
	rounds := max(1, int(math.Round(s.cfg.seconds/roundSeconds)))
	var ops []editOp
	k := 0
	for r := 0; r < rounds; r++ {
		ops = append(ops, s.round(rng, &k)...)
	}
	return ops
}

// editStream is the resident warm state of the loop.
type editStream struct {
	cfg    config
	res    *result
	tr     *tracer
	eng    *core.Engine
	order  []string
	cbs    map[string]*corpus.Codebase
	base   map[string]map[string]string // port -> unit file -> base source
	lits   map[string][][]int
	prior  map[string]*core.Index
	tally  *engineTally
	shapes *shapeTally
	sink   int

	// the last dirty edit's state, re-checked by a fresh engine at the end
	lastPort string
	lastIdxs map[string]*core.Index
	lastM    [][]float64
}

// newEditStream generates the ports and runs the cold sweep that fills the
// resident engine (the workload's set-up).
func newEditStream(cfg config, res *result, rec *obs.Recorder) (*editStream, error) {
	app, err := corpus.AppByName(appTealeaf)
	if err != nil {
		return nil, err
	}
	s := &editStream{
		cfg: cfg, res: res,
		eng:   core.NewEngineObs(cfg.workers, ted.NewCache(), rec),
		cbs:   map[string]*corpus.Codebase{},
		base:  map[string]map[string]string{},
		lits:  map[string][][]int{},
		prior: map[string]*core.Index{},
	}
	for _, m := range corpus.ModelsFor(app) {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			return nil, err
		}
		port := string(m)
		s.order = append(s.order, port)
		s.cbs[port] = cb
		s.base[port] = map[string]string{}
		for _, u := range cb.Units {
			src := cb.Files[u.File]
			s.base[port][u.File] = src
			s.lits[port+"/"+u.File] = floatLit.FindAllStringIndex(src, -1)
		}
	}
	idxs := map[string]*core.Index{}
	for _, port := range s.order {
		idx, _, err := s.eng.IndexCodebaseIncremental(s.cbs[port], nil, core.Options{})
		if err != nil {
			return nil, err
		}
		idxs[port] = idx
		s.prior[port] = idx
	}
	m, err := s.eng.Matrix(idxs, s.order, metric)
	if err != nil {
		return nil, err
	}
	res.attempted++
	checkGolden(res, "cold sweep", map[string][2]string{
		"tealeaf tsem matrix": {matrixDigest(s.order, m), goldenTealeafTsem},
	})
	return s, nil
}

// apply writes an operation's generated source into the port (the
// equivalent of the user saving a file; not timed).
func (s *editStream) apply(op editOp) {
	switch op.kind {
	case "append":
		s.cbs[op.port].Files[op.file] = s.base[op.port][op.file] +
			fmt.Sprintf("\ndouble bench_edit_%d(double x) {\n\treturn x * %d.0;\n}\n", op.k, op.k+2)
	case "literal":
		src := s.base[op.port][op.file]
		at := s.lits[op.port+"/"+op.file][op.lit]
		s.cbs[op.port].Files[op.file] = src[:at[0]] + fmt.Sprintf("%d.25", 1000+op.k) + src[at[1]:]
	case "revert":
		s.cbs[op.port].Files[op.file] = s.base[op.port][op.file]
	}
}

// step applies and runs one operation and returns its latency.
func (s *editStream) step(op editOp) (time.Duration, error) {
	s.apply(op)
	s.res.attempted++
	before := s.eng.IncrStats()
	name := "op.resweep"
	if op.dirty() {
		name = "op.edit"
	}
	t0 := time.Now()
	root := s.tr.begin(0, name)
	idxs := make(map[string]*core.Index, len(s.order))
	for _, port := range s.order {
		sp := s.tr.begin(root, "core.index_incremental")
		idx, _, err := s.eng.IndexCodebaseIncremental(s.cbs[port], s.prior[port], core.Options{})
		s.tr.end(sp)
		if err != nil {
			return 0, err
		}
		s.prior[port] = idx
		idxs[port] = idx
	}
	sp := s.tr.begin(root, "engine.matrix")
	m, err := s.eng.Matrix(idxs, s.order, metric)
	s.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = s.tr.begin(root, "render.heatmap")
	heat := textplot.Heatmap(s.order, s.order, m)
	s.tr.end(sp)
	sp = s.tr.begin(root, "render.dendrogram")
	tree, err := cluster.Agglomerate(s.order, cluster.EuclideanFromMatrix(m))
	var dendro string
	if err == nil {
		dendro = cluster.Render(tree)
	}
	s.tr.end(sp)
	s.tr.end(root)
	dt := time.Since(t0)
	if err != nil {
		return 0, err
	}
	s.sink += len(heat) + len(dendro)

	// Dirty-set invariants of DESIGN.md §12.
	d := s.eng.IncrStats().Delta(before)
	n := len(s.order)
	var ok bool
	switch op.kind {
	case "append", "literal":
		ok = d.UnitsReparsed == 1 && d.CellsRecomputed == n-1
		s.lastPort, s.lastIdxs, s.lastM = op.port, idxs, m
		if s.shapes != nil {
			for _, q := range s.order {
				if q != op.port {
					s.shapes.addPair(idxs[op.port], idxs[q], metric)
				}
			}
		}
	case "revert":
		ok = d.CellsRecomputed == 0
	default:
		ok = d.UnitsReparsed == 0 && d.CellsRecomputed == 0
	}
	if !ok {
		s.res.fail("%s %s/%s: %s", op.kind, op.port, op.file, d.Line())
	}
	return dt, nil
}

// checkLastEdit recomputes the last dirty edit's row on a fresh engine and
// compares it with the resident engine's answer bit for bit.
func (s *editStream) checkLastEdit() error {
	if s.lastPort == "" {
		return nil
	}
	s.res.attempted++
	fresh := core.NewEngine(s.cfg.workers)
	p := indexOf(s.order, s.lastPort)
	for q := range s.order {
		if q == p {
			continue
		}
		i, j := min(p, q), max(p, q)
		pair := []string{s.order[i], s.order[j]}
		m, err := fresh.Matrix(s.lastIdxs, pair, metric)
		if err != nil {
			return err
		}
		if !sameBits(m, [][]float64{{0, s.lastM[i][j]}, {s.lastM[j][i], 0}}) {
			s.res.fail("dirty row of %s: cell (%s, %s) differs on a fresh engine", s.lastPort, pair[0], pair[1])
			return nil
		}
	}
	return nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func runEditStream(cfg config) (*result, error) {
	res := &result{}
	if cfg.trace {
		return traceEditStream(cfg, res)
	}
	var setups []float64
	var s *editStream
	for i := 0; i < editSetupRepeats; i++ {
		s = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = newEditStream(cfg, res, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var edits, resweeps samples
	start := time.Now()
	for _, op := range s.stream() {
		dt, err := s.step(op)
		if err != nil {
			return nil, err
		}
		if op.dirty() {
			edits = append(edits, dt)
		} else {
			resweeps = append(resweeps, dt)
		}
	}
	wall := time.Since(start)
	heap := heapMB()
	if err := s.checkLastEdit(); err != nil {
		return nil, err
	}
	res.e2e = map[string]float64{
		"setup_s":            median(setups),
		"primary_gmean_ms":   edits.gmean(),
		"primary_p90_ms":     edits.pct(90),
		"secondary_gmean_ms": resweeps.gmean(),
		"ops_per_s":          float64(len(edits)+len(resweeps)) / wall.Seconds(),
		"heap_mb":            heap,
	}
	res.note("setup_s", median(setups), "s")
	res.note("edit_p50_ms", edits.pct(50), "ms")
	res.note("edit_gmean_ms", edits.gmean(), "ms")
	res.note("edit_p90_ms", edits.pct(90), "ms")
	res.note("edit_p99_ms", edits.pct(99), "ms")
	res.note("resweep_p50_ms", resweeps.pct(50), "ms")
	res.note("resweep_gmean_ms", resweeps.gmean(), "ms")
	res.note("edits", float64(len(edits)), "count")
	res.note("resweeps", float64(len(resweeps)), "count")
	res.note("heap_mb", heap, "MB")
	return res, nil
}

// traceEditStream runs the seeded stream untraced and then traced (each
// after its own cold set-up) and reports the traced layers.
func traceEditStream(cfg config, res *result) (*result, error) {
	seq := func(s *editStream) (time.Duration, error) {
		var total time.Duration
		for _, op := range s.stream() {
			dt, err := s.step(op)
			if err != nil {
				return 0, err
			}
			total += dt
		}
		return total, nil
	}
	s, err := newEditStream(cfg, res, nil)
	if err != nil {
		return nil, err
	}
	untraced, err := seq(s)
	if err != nil {
		return nil, err
	}
	s = nil
	runtime.GC()
	tr, rec := newTracer()
	if s, err = newEditStream(cfg, res, rec); err != nil {
		return nil, err
	}
	s.tr, s.tally, s.shapes = tr, &engineTally{}, newShapeTally()
	s.tally.attach(s.eng)
	after := tr.now()
	before, rt0 := rec.Snapshot(), readRT()
	traced, err := seq(s)
	if err != nil {
		return nil, err
	}
	rt1 := readRT()
	s.tally.detach()
	if err := s.checkLastEdit(); err != nil {
		return nil, err
	}

	sp := tr.splits(after)
	all := rec.Spans()
	for _, p := range sp {
		p.refine(all, "engine.matrix", p.busyIn(all, "engine.matrix", "engine.cell"), map[string]string{"ted": "ted.distance"})
		p.refine(all, "core.index_incremental", p.layers["core.index_incremental"], map[string]string{"frontend": "index.unit"})
	}
	l := newLayers()
	programLayers(l, rec, before, allWindows(sp), s.tally, cfg.workers)
	benchLayers(l, sp, tr.countCalls(after))
	s.shapes.fill(l)
	addRuntimeLayers(l, rt0, rt1)
	l["bench.trace_overhead"] = float64(traced) / float64(untraced)
	// Dirty edits should be memo traffic plus incremental reuse; clean
	// re-sweeps the engine's cell memo, incremental indexing (hashing, and
	// a revert's one reparsed unit) and rendering, with no TED at all.
	l["split.primary_share"] = sp["op.edit"].share("ted", "core.index_incremental", "frontend")
	l["split.secondary_share"] = 1 - sp["op.resweep"].share("ted")
	res.layers = l
	writeSplits(os.Stdout, cfg.workload, sp)
	return res, tr.save(cfg, sp)
}
