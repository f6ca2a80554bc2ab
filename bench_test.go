// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see the per-experiment index in DESIGN.md), plus
// micro-benchmarks for the expensive substrates (TED, pq-grams, O(NP)
// diff, preprocessing, full-unit indexing).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks share one experiment environment, so indexes and
// divergence matrices are computed once and reused — the numbers measure
// regeneration cost, with the first iteration paying the real pipeline
// cost.
package silvervale

import (
	"math/rand"
	"sync"
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/minic"
	"silvervale/internal/obs"
	"silvervale/internal/seqdiff"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

var benchEnv = experiments.NewEnv()

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Text) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// --- one benchmark per table / figure ----------------------------------------

func BenchmarkTable1Metrics(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2MiniApps(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3Platforms(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig1TEDExample(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig4TeaLeafTsem(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5TeaLeafAllMetrics(b *testing.B) {
	benchExperiment(b, "fig5")
}
func BenchmarkFig6FortranDendrograms(b *testing.B) {
	benchExperiment(b, "fig6")
}
func BenchmarkFig7MiniBUDEHeatmap(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8CloverLeafHeatmap(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9FromSerial(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10FromCUDA(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11TeaLeafCascade(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12CloverLeafCascade(b *testing.B) {
	benchExperiment(b, "fig12")
}
func BenchmarkFig13CloverLeafNavigation(b *testing.B) {
	benchExperiment(b, "fig13")
}
func BenchmarkFig14TeaLeafNavigation(b *testing.B) {
	benchExperiment(b, "fig14")
}
func BenchmarkFig15Scenario(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkAblationTEDCosts(b *testing.B)   { benchExperiment(b, "ablation-costs") }
func BenchmarkAblationPQGramMode(b *testing.B) { benchExperiment(b, "ablation-approx") }

// --- substrate micro-benchmarks -----------------------------------------------

func randomBenchTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"A", "B", "C", "D", "E", "F"}
	nodes := []*tree.Node{tree.New(labels[0])}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		child := tree.New(labels[r.Intn(len(labels))])
		parent.Add(child)
		nodes = append(nodes, child)
	}
	return nodes[0]
}

func BenchmarkTEDMedium(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	t1 := randomBenchTree(r, 300)
	t2 := randomBenchTree(r, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ted.Distance(t1, t2)
	}
}

func BenchmarkTEDUnitScale(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	t1 := randomBenchTree(r, 1500)
	t2 := randomBenchTree(r, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ted.Distance(t1, t2)
	}
}

// BenchmarkTEDvsPQGram is the ablation for the paper's future-work note on
// TED memory/time: the pq-gram approximation against exact TED on the same
// inputs.
func BenchmarkTEDvsPQGramApprox(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	t1 := randomBenchTree(r, 1500)
	t2 := randomBenchTree(r, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ted.ApproxDistance(t1, t2)
	}
}

// --- divergence engine benchmarks ---------------------------------------------
//
// Serial vs parallel vs cached Matrix over the TeaLeaf and CloverLeaf
// corpora (see EXPERIMENTS.md §Engine for recorded numbers). Serial is
// the one-shot package path; Parallel is a fresh NumCPU engine per
// iteration with caching disabled (pure worker-pool speedup); Cached
// reuses one engine across iterations so every TED after the first
// iteration is answered from the content-addressed memo.

var engineBenchIndexes = struct {
	sync.Once
	idxs  map[string]map[string]*core.Index
	order map[string][]string
	err   error
}{}

func benchIndexesFor(b *testing.B, appName string) (map[string]*core.Index, []string) {
	b.Helper()
	engineBenchIndexes.Do(func() {
		engineBenchIndexes.idxs = map[string]map[string]*core.Index{}
		engineBenchIndexes.order = map[string][]string{}
		for _, name := range []string{"tealeaf", "cloverleaf"} {
			app, err := corpus.AppByName(name)
			if err != nil {
				engineBenchIndexes.err = err
				return
			}
			idxs := map[string]*core.Index{}
			var order []string
			for _, m := range corpus.ModelsFor(app) {
				cb, err := corpus.Generate(app, m)
				if err != nil {
					engineBenchIndexes.err = err
					return
				}
				idx, err := core.IndexCodebase(cb, core.Options{})
				if err != nil {
					engineBenchIndexes.err = err
					return
				}
				idxs[string(m)] = idx
				order = append(order, string(m))
			}
			engineBenchIndexes.idxs[name] = idxs
			engineBenchIndexes.order[name] = order
		}
	})
	if engineBenchIndexes.err != nil {
		b.Fatal(engineBenchIndexes.err)
	}
	return engineBenchIndexes.idxs[appName], engineBenchIndexes.order[appName]
}

func benchMatrix(b *testing.B, appName string, run func(idxs map[string]*core.Index, order []string) error) {
	idxs, order := benchIndexesFor(b, appName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(idxs, order); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixSerial(b *testing.B) {
	benchMatrix(b, "tealeaf", func(idxs map[string]*core.Index, order []string) error {
		_, err := core.Matrix(idxs, order, core.MetricTsem)
		return err
	})
}

func BenchmarkMatrixParallel(b *testing.B) {
	benchMatrix(b, "tealeaf", func(idxs map[string]*core.Index, order []string) error {
		engine := core.NewEngine(0) // fresh engine per iteration: every sweep is cold
		_, err := engine.Matrix(idxs, order, core.MetricTsem)
		return err
	})
}

// BenchmarkMatrixObsEnabled is BenchmarkMatrixParallel with a live
// recorder: same fresh cold engine, but every cell emits spans and the
// pool feeds the engine.* counters/histograms. BenchmarkMatrixParallel is
// the obs-disabled baseline for both comparisons the observability design
// budgets for (DESIGN.md §Observability): disabled overhead must be
// indistinguishable from the pre-instrumentation engine (<2%), enabled
// overhead a few percent.
func BenchmarkMatrixObsEnabled(b *testing.B) {
	benchMatrix(b, "tealeaf", func(idxs map[string]*core.Index, order []string) error {
		engine := core.NewEngineObs(0, ted.NewCache(), obs.NewRecorder())
		_, err := engine.Matrix(idxs, order, core.MetricTsem)
		return err
	})
}

func BenchmarkMatrixCached(b *testing.B) {
	idxs, order := benchIndexesFor(b, "tealeaf")
	engine := core.NewEngine(0)
	if _, err := engine.Matrix(idxs, order, core.MetricTsem); err != nil {
		b.Fatal(err) // warm the memo; iterations measure the repeated-sweep cost
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Matrix(idxs, order, core.MetricTsem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixSerialCloverLeaf(b *testing.B) {
	benchMatrix(b, "cloverleaf", func(idxs map[string]*core.Index, order []string) error {
		_, err := core.Matrix(idxs, order, core.MetricTsem)
		return err
	})
}

func BenchmarkMatrixParallelCloverLeaf(b *testing.B) {
	benchMatrix(b, "cloverleaf", func(idxs map[string]*core.Index, order []string) error {
		engine := core.NewEngine(0)
		_, err := engine.Matrix(idxs, order, core.MetricTsem)
		return err
	})
}

func BenchmarkMatrixCachedCloverLeaf(b *testing.B) {
	idxs, order := benchIndexesFor(b, "cloverleaf")
	engine := core.NewEngine(0)
	if _, err := engine.Matrix(idxs, order, core.MetricTsem); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Matrix(idxs, order, core.MetricTsem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexSerialTeaLeafCUDA is the Workers:1 baseline for
// BenchmarkIndexTeaLeafCUDA (which uses the default NumCPU pool).
func BenchmarkIndexSerialTeaLeafCUDA(b *testing.B) {
	app, err := corpus.AppByName("tealeaf")
	if err != nil {
		b.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IndexCodebase(cb, core.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLCSDiff(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	mk := func() []string {
		lines := make([]string, 2000)
		for i := range lines {
			lines[i] = string(rune('a' + r.Intn(6)))
		}
		return lines
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seqdiff.LCSStrings(a, c)
	}
}

func BenchmarkPreprocessSYCLUnit(b *testing.B) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		b.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.SYCLACC)
	if err != nil {
		b.Fatal(err)
	}
	provider := &minic.MapProvider{Files: cb.Files, System: cb.System}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := minic.NewPreprocessor(provider, nil)
		if _, err := pp.Preprocess("main.cpp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexTeaLeafCUDA(b *testing.B) {
	app, err := corpus.AppByName("tealeaf")
	if err != nil {
		b.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IndexCodebase(cb, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoverageRun(b *testing.B) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		b.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.Serial)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunCoverage(cb); err != nil {
			b.Fatal(err)
		}
	}
}
