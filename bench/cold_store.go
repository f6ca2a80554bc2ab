package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/obs"
	"silvervale/internal/serve"
	"silvervale/internal/store"
)

// cold_store: the cold CLI or CI run. A fresh experiments.Env over an
// empty on-disk store builds the tealeaf tsem matrix, the tealeaf
// measured-Φ navigation chart and the babelstream-fortran tsem matrix,
// then closes the store (draining its write-behind records). Restarts
// repeat the same three outputs from a fresh Env over the populated store.
// The inputs are the fixed generated corpus; the seed only names the run.

const (
	appTealeaf = "tealeaf"
	appFortran = "babelstream-fortran"
	appBabel   = "babelstream"
	metric     = core.MetricTsem
)

// An untraced run times coldRepeats cold passes, each over its own empty
// store, and reports the fastest: the cold pass is one ~12 s sample, and
// on a shared machine a burst of other load would otherwise decide it.
// It then measures at least minRestarts restarts; a traced run measures
// one cold pass and tracedRestarts restarts. Set-up is a few milliseconds,
// so it is timed coldSetupRepeats times.
const (
	coldRepeats      = 2
	minRestarts      = 5
	tracedRestarts   = 3
	coldSetupRepeats = 15
)

type coldStore struct {
	cfg     config
	res     *result
	tr      *tracer
	rec     *obs.Recorder
	tally   *engineTally
	shapes  *shapeTally
	lastEnv *experiments.Env // the last restart's state, live for heap_mb
}

// coldSetup prepares an empty store directory and generates the corpus
// the passes index.
func coldSetup(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{appTealeaf, appFortran} {
		app, err := corpus.AppByName(name)
		if err != nil {
			return err
		}
		if _, err := corpus.GenerateAll(app); err != nil {
			return err
		}
	}
	return nil
}

func runColdStore(cfg config) (*result, error) {
	res := &result{}
	dir := filepath.Join(cfg.out, fmt.Sprintf("cold_store-seed%d", cfg.seed))
	defer os.RemoveAll(dir)
	if cfg.trace {
		return traceColdStore(cfg, res, dir)
	}
	var setups []float64
	for i := 0; i < coldSetupRepeats; i++ {
		t0 := time.Now()
		if err := coldSetup(dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c := &coldStore{cfg: cfg, res: res}
	var cold time.Duration
	for i := 0; i < coldRepeats; i++ {
		if err := coldSetup(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := c.pass(dir, "op.cold"); err != nil {
			return nil, err
		}
		if d := time.Since(t0); i == 0 || d < cold {
			cold = d
		}
	}
	start := time.Now()
	end := deadline(cfg)
	var restarts samples
	for len(restarts) < minRestarts || time.Now().Before(end) {
		t0 := time.Now()
		if err := c.pass(dir, "op.restart"); err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(t0))
	}
	wall := time.Since(start)
	heap := heapMB()
	runtime.KeepAlive(c.lastEnv)

	res.e2e = map[string]float64{
		"setup_s":            median(setups),
		"primary_gmean_ms":   restarts.gmean(),
		"primary_p90_ms":     restarts.pct(90),
		"secondary_gmean_ms": ms(cold),
		"ops_per_s":          float64(1+len(restarts)) / wall.Seconds(),
		"heap_mb":            heap,
	}
	res.note("setup_s", median(setups), "s")
	res.note("cold_s", cold.Seconds(), "s")
	res.note("restart_ms", restarts.pct(50), "ms")
	res.note("restart_gmean_ms", restarts.gmean(), "ms")
	res.note("restart_p90_ms", restarts.pct(90), "ms")
	res.note("restarts", float64(len(restarts)), "count")
	res.note("heap_mb", heap, "MB")
	return res, nil
}

// traceColdStore runs the fixed sequence (cold pass plus tracedRestarts
// restarts) untraced and then traced, and reports the traced layers.
func traceColdStore(cfg config, res *result, dir string) (*result, error) {
	seq := func(c *coldStore) (time.Duration, error) {
		if err := coldSetup(dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := c.pass(dir, "op.cold"); err != nil {
			return 0, err
		}
		for i := 0; i < tracedRestarts; i++ {
			if err := c.pass(dir, "op.restart"); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	untraced, err := seq(&coldStore{cfg: cfg, res: res})
	if err != nil {
		return nil, err
	}
	tr, rec := newTracer()
	c := &coldStore{cfg: cfg, res: res, tr: tr, rec: rec, tally: &engineTally{}, shapes: newShapeTally()}
	before, rt0 := rec.Snapshot(), readRT()
	traced, err := seq(c)
	if err != nil {
		return nil, err
	}
	rt1 := readRT()

	sp := tr.splits(0)
	all := rec.Spans()
	for _, s := range sp {
		s.refine(all, "env.matrix", s.busyIn(all, "env.matrix", "engine.cell"), map[string]string{"ted.dp": "ted.distance"})
		s.refine(all, "env.navchart", s.busyIn(all, "env.navchart", "engine.compare"), map[string]string{"ted.dp": "ted.distance"})
	}
	l := newLayers()
	programLayers(l, rec, before, allWindows(sp), c.tally, cfg.workers)
	benchLayers(l, sp, tr.countCalls(0))
	c.shapes.fill(l)
	addRuntimeLayers(l, rt0, rt1)
	l["bench.trace_overhead"] = float64(traced) / float64(untraced)
	// Restarts should be store reads, interpreter profiling and
	// rendering; the cold pass should be TED DP.
	l["split.primary_share"] = sp["op.restart"].share("store.open", "store.flush", "env.indexes",
		"env.matrix", "env.measured_set", "render.matrix_json", "render.navchart_json")
	l["split.secondary_share"] = sp["op.cold"].share("ted.dp")
	res.layers = l
	writeSplits(os.Stdout, cfg.workload, sp)
	return res, tr.save(cfg, sp)
}

// pass is one cold or restart pass: open the store, build the three
// outputs through a fresh Env, close the store, check the outputs.
func (c *coldStore) pass(dir, op string) error {
	c.res.attempted++
	root := c.tr.begin(0, op)
	defer c.tr.end(root)
	sp := c.tr.begin(root, "store.open")
	st, err := store.Open(dir, store.Options{})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	env := experiments.NewEnvStore(c.cfg.workers, c.rec, st)
	if err := env.SetPhiSource(experiments.PhiSourceMeasured); err != nil {
		return err
	}
	if c.tally != nil {
		c.tally.attach(env.Engine())
	}
	teaM, teaOrder, teaIdx, err := c.matrix(env, root, appTealeaf)
	if err != nil {
		return err
	}
	sp = c.tr.begin(root, "env.measured_set")
	_, err = env.MeasuredSet(appTealeaf)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin(root, "env.navchart")
	ch, err := env.NavChart(appTealeaf)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	var chart bytes.Buffer
	sp = c.tr.begin(root, "render.navchart_json")
	err = ch.WriteJSON(&chart)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	fM, fOrder, fIdx, err := c.matrix(env, root, appFortran)
	if err != nil {
		return err
	}
	sp = c.tr.begin(root, "store.flush")
	err = st.Close()
	c.tr.end(sp)
	if err != nil {
		return err
	}
	if c.tally != nil {
		c.tally.detach()
		c.tally.addStore(st.Stats())
	}
	if c.shapes != nil {
		c.shapes.addMatrix(teaIdx, teaOrder, metric)
		c.shapes.addMatrix(fIdx, fOrder, metric)
		for _, m := range teaOrder {
			c.shapes.addPair(teaIdx["serial"], teaIdx[m], core.MetricTsrc)
		}
	}
	checkGolden(c.res, op, map[string][2]string{
		"tealeaf tsem matrix":             {matrixDigest(teaOrder, teaM), goldenTealeafTsem},
		"babelstream-fortran tsem matrix": {matrixDigest(fOrder, fM), goldenFortranTsem},
		"tealeaf navigation chart":        {bytesDigest(chart.Bytes()), goldenTealeafChart},
	})
	c.lastEnv = env
	return nil
}

// matrix builds one app's indexes, tsem matrix and matrix JSON payload.
func (c *coldStore) matrix(env *experiments.Env, root int, app string) ([][]float64, []string, map[string]*core.Index, error) {
	sp := c.tr.begin(root, "env.indexes")
	idxs, order, err := env.Indexes(app)
	c.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = c.tr.begin(root, "env.matrix")
	m, _, err := env.Matrix(app, metric)
	c.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	sp = c.tr.begin(root, "render.matrix_json")
	err = serve.BuildMatrixPayload(app, metric, order, m, idxs).WriteJSON(&buf)
	c.tr.end(sp)
	return m, order, idxs, err
}
