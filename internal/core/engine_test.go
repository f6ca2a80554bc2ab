package core

// Engine tests: the concurrent divergence engine must be a pure
// optimisation — byte-identical output to the serial one-shot path for
// every worker count, from any number of goroutines, against a shared
// cache. Run with -race to exercise the synchronisation (documented
// tier-1 step in README/ROADMAP).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/ted"
)

// testEngine is the package's shared cached engine. The seed shape and
// probe tests route their FromBase/Matrix/Diverge calls through it, so
// every distinct (tree, tree, costs) pair is computed once per test run —
// the equality tests below pin it byte-identical to the serial path, and
// the shared memo keeps the package inside the race detector's default
// 10-minute budget on slow runners.
var testEngine = NewEngine(0)

// buildIndexes indexes every model of an app serially (Workers: 1), the
// reference configuration the parallel paths are compared against.
// Results are memoised per app: the engine tests treat indexes as
// read-only inputs, so one build serves every test.
var builtIndexes sync.Map // app -> *builtApp

type builtApp struct {
	once  sync.Once
	idxs  map[string]*Index
	order []string
	err   error
}

func buildIndexes(tb testing.TB, appName string) (map[string]*Index, []string) {
	tb.Helper()
	entry, _ := builtIndexes.LoadOrStore(appName, &builtApp{})
	ba := entry.(*builtApp)
	ba.once.Do(func() {
		app, err := corpus.AppByName(appName)
		if err != nil {
			ba.err = err
			return
		}
		ba.idxs = map[string]*Index{}
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				ba.err = err
				return
			}
			idx, err := IndexCodebase(cb, Options{Workers: 1})
			if err != nil {
				ba.err = err
				return
			}
			ba.idxs[string(m)] = idx
			ba.order = append(ba.order, string(m))
		}
	})
	if ba.err != nil {
		tb.Fatal(ba.err)
	}
	return ba.idxs, ba.order
}

// matrixBytes renders a matrix to an exact byte representation ('%v' over
// float64 round-trips every bit), the form the determinism guarantees are
// stated in.
func matrixBytes(m [][]float64) string { return fmt.Sprintf("%v", m) }

func TestParallelIndexMatchesSerial(t *testing.T) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []corpus.Model{corpus.Serial, corpus.SYCLACC} {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := IndexCodebase(cb, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := IndexCodebase(cb, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s/%s: parallel index differs from serial", app.Name, m)
		}
	}
}

func TestEngineMatrixMatchesSerial(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	metrics := []string{MetricTsem, MetricTsrc, MetricSource, MetricSLOC}
	if testing.Short() {
		metrics = metrics[:1]
	}
	for _, metric := range metrics {
		want, err := Matrix(idxs, order, metric)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := NewEngine(workers).Matrix(idxs, order, metric)
			if err != nil {
				t.Fatal(err)
			}
			if matrixBytes(got) != matrixBytes(want) {
				t.Fatalf("%s with %d workers: matrix differs from serial\nserial:   %v\nparallel: %v",
					metric, workers, want, got)
			}
		}
	}
}

// TestPathStrategyMatrixBitIdentical: on a real corpus the TED path
// strategy (mirrored root-child sub-DPs, DESIGN.md §13) engages, and the
// matrix stays bit-identical to the monolithic left-path DP at every
// worker count. The reference is the serial package-level Matrix, whose
// ted.Distance runs the monolithic DP with no memo.
func TestPathStrategyMatrixBitIdentical(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	want, err := Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		rec := obs.NewRecorder()
		got, err := NewEngineObs(workers, ted.NewCache(), rec).Matrix(idxs, order, MetricTsem)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(want, got) {
			t.Fatalf("workers=%d: path-strategy matrix differs from the monolithic DP", workers)
		}
		if rec.Counter("ted.subdp_mirrored").Value() == 0 {
			t.Fatalf("workers=%d: no mirrored sub-DP ran; the strategy never engaged", workers)
		}
	}
}

func TestEngineFromBaseMatchesSerial(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	want, err := FromBase(idxs, "f-sequential", order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(8).FromBase(idxs, "f-sequential", order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel FromBase differs: %v vs %v", got, want)
	}
}

// TestSharedCacheConcurrentMatrix runs Matrix from many goroutines against
// one shared engine/cache and requires every result to be byte-identical
// to the serial path — the contended-memo scenario the cache must survive.
func TestSharedCacheConcurrentMatrix(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	want, err := Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := matrixBytes(want)
	engine := NewEngine(4)
	const goroutines = 6
	results := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			m, err := engine.Matrix(idxs, order, MetricTsem)
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = matrixBytes(m)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if results[g] != wantBytes {
			t.Fatalf("goroutine %d produced a different matrix than the serial path", g)
		}
	}
	if st := engine.CacheStats(); st.Hits == 0 {
		t.Fatalf("six identical sweeps over one cache produced no hits: %+v", st)
	} else if st.HitRate() <= 0 {
		t.Fatalf("cache stats report hits but a non-positive hit rate: %s", st)
	}
}

// TestEngineCacheReuse verifies the short-circuit economics the engine is
// for: a repeated Matrix over the same indexes answers every cell from the
// cell memo, without even consulting the TED cache (DESIGN.md §12).
func TestEngineCacheReuse(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	engine := NewEngine(2)
	if _, err := engine.Matrix(idxs, order, MetricTsem); err != nil {
		t.Fatal(err)
	}
	cold := engine.CacheStats()
	if _, err := engine.Matrix(idxs, order, MetricTsem); err != nil {
		t.Fatal(err)
	}
	warm := engine.CacheStats()
	// CacheStats carries the (map-valued) store snapshot, so compare the
	// traffic counters rather than the whole struct.
	if warm.Hits != cold.Hits || warm.Misses != cold.Misses ||
		warm.SubtreeHits != cold.SubtreeHits || warm.SubtreeMisses != cold.SubtreeMisses ||
		warm.FlatHits != cold.FlatHits || warm.FlatMisses != cold.FlatMisses {
		t.Fatalf("second sweep reached the TED layer: cold %+v warm %+v", cold, warm)
	}
	n := len(order)
	if got, want := engine.IncrStats().CellsReused, n*(n-1)/2; got != want {
		t.Fatalf("cell memo reused %d cells, want %d", got, want)
	}
}

// TestEngineErrorsMatchSerial pins the engine's error reporting to the
// serial loop: same missing-model and unknown-metric messages, detected
// deterministically regardless of scheduling.
func TestEngineErrorsMatchSerial(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	engine := NewEngine(4)

	_, serialErr := Matrix(idxs, append([]string{"nope"}, order...), MetricTsem)
	_, engineErr := engine.Matrix(idxs, append([]string{"nope"}, order...), MetricTsem)
	if serialErr == nil || engineErr == nil || serialErr.Error() != engineErr.Error() {
		t.Fatalf("missing-model errors differ: %v vs %v", serialErr, engineErr)
	}

	_, serialErr = Matrix(idxs, order, "bogus")
	_, engineErr = engine.Matrix(idxs, order, "bogus")
	if serialErr == nil || engineErr == nil || serialErr.Error() != engineErr.Error() {
		t.Fatalf("unknown-metric errors differ: %v vs %v", serialErr, engineErr)
	}

	_, serialErr = FromBase(idxs, "nope", order, MetricTsem)
	_, engineErr = engine.FromBase(idxs, "nope", order, MetricTsem)
	if serialErr == nil || engineErr == nil || serialErr.Error() != engineErr.Error() {
		t.Fatalf("missing-base errors differ: %v vs %v", serialErr, engineErr)
	}
}

// TestEngineDivergeVariantsMatchSerial covers the cached cost-model and
// approximate paths against their one-shot forms.
func TestEngineDivergeVariantsMatchSerial(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	engine := NewEngine(2)
	base := idxs[order[0]]
	costs := []ted.Costs{
		{Insert: 1, Delete: 1, Rename: 1},
		{Insert: 2, Delete: 1, Rename: 1},
		{Insert: 1, Delete: 2, Rename: 3},
	}
	for _, m := range order {
		for _, tc := range costs {
			want, err := DivergeWithCosts(base, idxs[m], MetricTsem, tc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.DivergeWithCosts(base, idxs[m], MetricTsem, tc)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("weighted divergence differs for %s under %+v: %+v vs %+v", m, tc, want, got)
			}
		}
		want, err := ApproxDiverge(base, idxs[m], MetricTsem)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.ApproxDiverge(base, idxs[m], MetricTsem)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("approx divergence differs for %s: %+v vs %+v", m, want, got)
		}
	}
}

// TestMatrixRunsReproducible is the regression test for map-iteration
// nondeterminism: repeated runs (serial and parallel, fresh and shared
// caches) must render byte-identically, and TreeSizes must agree with
// itself across calls.
func TestMatrixRunsReproducible(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	var renders []string
	for run := 0; run < 3; run++ {
		m, err := NewEngine(4).Matrix(idxs, order, MetricTsem)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, matrixBytes(m))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("run %d rendered differently than run 0", i)
		}
	}
	for _, m := range order {
		a, b := TreeSizes(idxs[m]), TreeSizes(idxs[m])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("TreeSizes not reproducible for %s: %v vs %v", m, a, b)
		}
	}
}
