package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"silvervale/internal/cbdb"
	"silvervale/internal/corpus"
	"silvervale/internal/coverage"
	"silvervale/internal/msgpack"
	"silvervale/internal/obs"
	"silvervale/internal/srcloc"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// pr8ExtraFn is a semantically visible edit: appended to any C++ unit it
// adds a function, moving the unit's tsem tree (and so its fingerprint).
const pr8ExtraFn = "\ndouble pr8_extra(double x) {\n\treturn x * 2.0;\n}\n"

// generateAll builds the codebases of every port of an app.
func generateAll(tb testing.TB, appName string) (map[string]*corpus.Codebase, []string) {
	tb.Helper()
	app, err := corpus.AppByName(appName)
	if err != nil {
		tb.Fatal(err)
	}
	cbs := map[string]*corpus.Codebase{}
	var order []string
	for _, m := range corpus.ModelsFor(app) {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			tb.Fatal(err)
		}
		cbs[string(m)] = cb
		order = append(order, string(m))
	}
	return cbs, order
}

// editKernels appends pr8ExtraFn to the codebase's kernels unit root and
// returns the edited file name.
func editKernels(tb testing.TB, cb *corpus.Codebase) string {
	tb.Helper()
	for _, u := range cb.Units {
		if u.Role == "kernels" {
			cb.Files[u.File] += pr8ExtraFn
			return u.File
		}
	}
	tb.Fatal("no kernels unit")
	return ""
}

// TestOptionsDigest pins what the digest distinguishes (system-header
// handling, coverage mask contents) and what it deliberately ignores
// (worker count, recorder — scheduling cannot change results).
func TestOptionsDigest(t *testing.T) {
	base := Options{}.Digest()
	if base == (store.ContentHash{}) {
		t.Fatal("zero digest for default options")
	}
	if d := (Options{Workers: 7}).Digest(); d != base {
		t.Fatal("worker count must not affect the digest")
	}
	if d := (Options{KeepSystemHeaders: true}).Digest(); d == base {
		t.Fatal("KeepSystemHeaders must move the digest")
	}
	mask := srcloc.NewLineMask()
	mask.Set("a.cpp", 3, true)
	withCov := Options{Coverage: coverage.NewProfile(mask)}
	d1 := withCov.Digest()
	if d1 == base {
		t.Fatal("a coverage mask must move the digest")
	}
	mask2 := srcloc.NewLineMask()
	mask2.Set("a.cpp", 3, true)
	if d := (Options{Coverage: coverage.NewProfile(mask2)}).Digest(); d != d1 {
		t.Fatal("equal masks must digest equal")
	}
	mask2.Set("a.cpp", 4, false)
	if d := (Options{Coverage: coverage.NewProfile(mask2)}).Digest(); d == d1 {
		t.Fatal("a dead line added to the mask must move the digest")
	}
}

// TestIncrementalIndexReuse: after a one-unit edit the incremental path
// reparses exactly that unit, and the result is indistinguishable from a
// cold index of the edited codebase. Each call runs on a fresh engine, so
// its memo starts empty and the prior index is the only source of reuse.
func TestIncrementalIndexReuse(t *testing.T) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := IndexCodebase(cb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// No edit: everything reuses, nothing reparses.
	same, st, err := NewEngine(1).IndexCodebaseIncremental(cb, prior, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReparsed != 0 || st.UnitsReused != len(prior.Units) {
		t.Fatalf("unedited codebase: %+v", st)
	}
	for _, m := range Metrics() {
		if MetricHash(same, m) != MetricHash(prior, m) {
			t.Fatalf("%s: unedited incremental index hashes differently", m)
		}
	}

	edited := editKernels(t, cb)
	incr, st, err := NewEngine(1).IndexCodebaseIncremental(cb, prior, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReparsed != 1 || st.UnitsReused != len(prior.Units)-1 {
		t.Fatalf("one-unit edit (%s): %+v", edited, st)
	}
	cold, err := IndexCodebase(cb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Metrics() {
		if MetricHash(incr, m) != MetricHash(cold, m) {
			t.Fatalf("%s: incremental index diverges from cold reindex", m)
		}
	}
	for _, m := range Metrics() {
		d1, err := Diverge(prior, incr, m)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Diverge(prior, cold, m)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: incremental %+v vs cold %+v", m, d1, d2)
		}
	}

	// A different-options prior disqualifies itself: everything reparses.
	_, st, err = NewEngine(1).IndexCodebaseIncremental(cb, prior, Options{KeepSystemHeaders: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsReused != 0 {
		t.Fatalf("prior built under different options was reused: %+v", st)
	}
}

// pr8Sweep indexes every codebase incrementally against prior indexes and
// runs one matrix sweep, returning the new indexes and the matrix.
func pr8Sweep(tb testing.TB, e *Engine, cbs map[string]*corpus.Codebase,
	prior map[string]*Index, order []string, metric string) (map[string]*Index, [][]float64) {
	tb.Helper()
	idxs := map[string]*Index{}
	for _, name := range order {
		idx, _, err := e.IndexCodebaseIncremental(cbs[name], prior[name], Options{})
		if err != nil {
			tb.Fatal(err)
		}
		idxs[name] = idx
	}
	m, err := e.Matrix(idxs, order, metric)
	if err != nil {
		tb.Fatal(err)
	}
	return idxs, m
}

// TestInvalidationExactness is the row/column property test: an edit to
// one unit of one model invalidates exactly the matrix cells touching
// that model — every other cell is served from the memo — and the warm
// matrix is bit-identical to a cold engine's sweep of the edited corpus.
func TestInvalidationExactness(t *testing.T) {
	cbs, order := generateAll(t, "babelstream")
	n := len(order)
	cells := n * (n - 1) / 2

	e := NewEngine(2)
	idxs, cold := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
	base := e.IncrStats()
	if base.CellsRecomputed != cells || base.CellsReused != 0 {
		t.Fatalf("cold sweep: %+v", base)
	}

	// Edit one unit of one model.
	const victim = "cuda"
	editKernels(t, cbs[victim])
	idxs2, warm := pr8Sweep(t, e, cbs, idxs, order, MetricTsem)
	d := e.IncrStats().Delta(base)

	if d.UnitsReparsed != 1 {
		t.Fatalf("one-unit edit reparsed %d units", d.UnitsReparsed)
	}
	if d.UnitsReused != n*2-1 {
		// every babelstream port is driver + kernels = 2 units
		t.Fatalf("units reused = %d, want %d", d.UnitsReused, n*2-1)
	}
	// Exactly the n-1 cells pairing the victim with every other model
	// recompute; every cell not touching the victim is reused.
	if d.CellsRecomputed != n-1 {
		t.Fatalf("edit to one model recomputed %d cells, want %d", d.CellsRecomputed, n-1)
	}
	if d.CellsReused != cells-(n-1) {
		t.Fatalf("cells reused = %d, want %d", d.CellsReused, cells-(n-1))
	}

	// Untouched cells are bit-identical to the previous sweep...
	vi := -1
	for i, name := range order {
		if name == victim {
			vi = i
		}
	}
	for i := range warm {
		for j := range warm[i] {
			if i == vi || j == vi {
				continue
			}
			if warm[i][j] != cold[i][j] {
				t.Fatalf("cell [%d][%d] moved without either side changing", i, j)
			}
		}
	}
	// ...and the whole warm matrix matches a cold engine, bit for bit.
	fresh := NewEngine(2)
	_, coldEdited := pr8Sweep(t, fresh, cbs, nil, order, MetricTsem)
	if !sameBits(warm, coldEdited) {
		t.Fatal("warm incremental matrix differs from a cold sweep of the edited corpus")
	}

	// Reverting the edit restores the original fingerprints, so the memo
	// still holds every cell of the original corpus: zero recomputes.
	cbRestored, err := corpus.Generate(mustApp(t, "babelstream"), corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	cbs[victim] = cbRestored
	before := e.IncrStats()
	_, reverted := pr8Sweep(t, e, cbs, idxs2, order, MetricTsem)
	d = e.IncrStats().Delta(before)
	if d.CellsRecomputed != 0 || d.CellsReused != cells {
		t.Fatalf("reverted edit still recomputed cells: %+v", d)
	}
	if !sameBits(reverted, cold) {
		t.Fatal("reverted matrix differs from the original")
	}
}

func mustApp(tb testing.TB, name string) corpus.App {
	tb.Helper()
	app, err := corpus.AppByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return app
}

// TestIncrementalDeterminismAcrossWorkers is the PR 8 determinism gate:
// cold sweep, one-function edit, warm incremental re-sweep — bit-identical
// to a cold engine at every worker count.
func TestIncrementalDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	ports := 0 // every port
	if raceEnabled {
		workerCounts = []int{1, 4}
		ports = 4 // serial, omp (the edited port), omp-target, cuda
	}
	var want [][]float64
	for _, workers := range workerCounts {
		cbs, order := generateAll(t, "babelstream")
		if ports > 0 {
			order = order[:ports]
		}
		e := NewEngine(workers)
		idxs, _ := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
		editKernels(t, cbs["omp"])
		_, warm := pr8Sweep(t, e, cbs, idxs, order, MetricTsem)

		fresh := NewEngine(workers)
		_, cold := pr8Sweep(t, fresh, cbs, nil, order, MetricTsem)
		if !sameBits(warm, cold) {
			t.Fatalf("workers=%d: warm incremental matrix differs from cold", workers)
		}
		if want == nil {
			want = warm
		} else if !sameBits(warm, want) {
			t.Fatalf("workers=%d: matrix differs from workers=%d", workers, workerCounts[0])
		}
	}
}

// TestSnapshotRoundTrip: the watch snapshot (indexes + memoised cells)
// survives Save/Load, and a restored engine answers a repeat sweep
// entirely from the imported memo, bit-identically.
func TestSnapshotRoundTrip(t *testing.T) {
	cbs, order := generateAll(t, "babelstream-fortran")
	e := NewEngine(1)
	idxs, cold := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
	n := len(order)
	cells := n * (n - 1) / 2

	snap := &Snapshot{Metric: MetricTsem, Models: map[string]*cbdb.DB{}}
	for name, idx := range idxs {
		snap.Models[name] = idx.ToDB()
	}
	// Entries can undercount cells: ports with bit-identical trees share
	// a metric hash, so their cells collapse onto one memo key.
	snap.Cells = e.ExportCells()
	if len(snap.Cells) == 0 || len(snap.Cells) > cells {
		t.Fatalf("exported %d cells, want 1..%d", len(snap.Cells), cells)
	}
	path := filepath.Join(t.TempDir(), "warm.svsnap")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metric != MetricTsem || len(loaded.Models) != n {
		t.Fatalf("loaded snapshot: metric=%q models=%d", loaded.Metric, len(loaded.Models))
	}
	if !reflect.DeepEqual(loaded.Cells, snap.Cells) {
		t.Fatal("cell records did not round trip")
	}

	e2 := NewEngine(1)
	e2.ImportCells(loaded.Cells)
	prior := map[string]*Index{}
	for name, db := range loaded.Models {
		idx, err := IndexFromDB(db)
		if err != nil {
			t.Fatal(err)
		}
		prior[name] = idx
	}
	_, warm := pr8Sweep(t, e2, cbs, prior, order, MetricTsem)
	st := e2.IncrStats()
	if st.CellsRecomputed != 0 || st.CellsReused != cells {
		t.Fatalf("restored engine recomputed cells: %+v", st)
	}
	if st.UnitsReparsed != 0 {
		t.Fatalf("restored engine reparsed units: %+v", st)
	}
	if !sameBits(warm, cold) {
		t.Fatal("restored sweep differs from the original")
	}
}

// TestReadSnapshotRejectsOtherVersions: a payload of any version but
// SnapshotVersion is refused with the "unsupported version" error rather
// than misread.
func TestReadSnapshotRejectsOtherVersions(t *testing.T) {
	for _, ver := range []int64{1, SnapshotVersion - 1, SnapshotVersion + 1} {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		payload := map[string]any{
			"version": ver,
			"metric":  MetricTsem,
			"models":  map[string]any{},
			"cells":   []any{},
			"subs":    []any{},
		}
		if err := msgpack.NewEncoder(gz).Encode(payload); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSnapshot(&buf)
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: ReadSnapshot error = %v, want unsupported version", ver, err)
		}
	}
}

// TestConcurrentSweepsSubtreeAttribution: two Matrix sweeps running at
// once on one engine, over disjoint cold model sets, must report exactly
// the subtree blocks their shared cache counted — each block once, not
// once per overlapping sweep.
func TestConcurrentSweepsSubtreeAttribution(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	if len(order) < 6 {
		t.Fatalf("need 6 models, have %v", order)
	}
	e := NewEngine(1)
	c0, i0 := e.CacheStats(), e.IncrStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k, models := range [][]string{order[:3], order[3:6]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[k] = e.Matrix(idxs, models, MetricTsem)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c1, d := e.CacheStats(), e.IncrStats().Delta(i0)
	hits, misses := int(c1.SubtreeHits-c0.SubtreeHits), int(c1.SubtreeMisses-c0.SubtreeMisses)
	if misses == 0 {
		t.Fatal("cold sweeps computed no memoisable blocks; the test proves nothing")
	}
	if d.SubtreeBlocksReused != hits || d.SubtreeBlocksRecomputed != misses {
		t.Fatalf("engine counted %d reused / %d recomputed blocks, cache counted %d / %d",
			d.SubtreeBlocksReused, d.SubtreeBlocksRecomputed, hits, misses)
	}
}

// TestEditResweepWork holds the incremental and subtree-memo layers to
// their work contracts, counted in DP cells rather than wall-clock ratios
// so the gates hold on any host: a no-edit re-sweep runs no TED at all; a
// one-function edit re-sweeps at most a tenth of the cold sweep's DP
// cells, and at most a tenth of what a cold cache pays for the same dirty
// cells; and structurally identical edits dirty the same subtree blocks
// every time, with reuse dominating recompute.
func TestEditResweepWork(t *testing.T) {
	cbs, order := generateAll(t, "babelstream")
	n := len(order)
	cells := n * (n - 1) / 2
	rec := obs.NewRecorder()
	e := NewEngineObs(1, ted.NewCache(), rec)
	dpCells := func() int64 { return rec.Snapshot().Counters["ted.dp_cells"] }
	idxs, _ := pr8Sweep(t, e, cbs, nil, order, MetricTsem)
	cold := dpCells()
	if cold == 0 {
		t.Fatal("cold sweep computed no DP cells")
	}

	before, misses := e.IncrStats(), e.CacheStats().Misses
	idxs, _ = pr8Sweep(t, e, cbs, idxs, order, MetricTsem)
	if d := e.IncrStats().Delta(before); d.UnitsReparsed != 0 || d.CellsRecomputed != 0 || d.CellsReused != cells {
		t.Fatalf("no-edit re-sweep did work: %+v", d)
	}
	if got := e.CacheStats().Misses; got != misses || dpCells() != cold {
		t.Fatalf("no-edit re-sweep ran TED: %d new misses, %d DP cells", got-misses, dpCells()-cold)
	}

	// Each edit appends a function of the same shape with its own name and
	// constant. The first also pays for the shape's constant-independent
	// fragments, so the dirty set is compared from the second edit on.
	const victim = "cuda"
	file := editKernels(t, cbs[victim])
	base := strings.TrimSuffix(cbs[victim].Files[file], pr8ExtraFn)
	var deltas []IncrStats
	var work []int64
	for rep := 0; rep < 3; rep++ {
		cbs[victim].Files[file] = base +
			fmt.Sprintf("\ndouble edit_%d(double x) {\n\treturn x * %d.0;\n}\n", rep, rep+3)
		before, c0 := e.IncrStats(), dpCells()
		idxs, _ = pr8Sweep(t, e, cbs, idxs, order, MetricTsem)
		d := e.IncrStats().Delta(before)
		if d.UnitsReparsed != 1 || d.CellsRecomputed != n-1 || d.CellsReused != cells-(n-1) {
			t.Fatalf("edit %d: dirty set %+v, want 1 unit and %d cells", rep, d, n-1)
		}
		deltas = append(deltas, d)
		work = append(work, dpCells()-c0)
	}
	for rep, d := range deltas[1:] {
		if d.SubtreeBlocksReused != deltas[1].SubtreeBlocksReused ||
			d.SubtreeBlocksRecomputed != deltas[1].SubtreeBlocksRecomputed {
			t.Fatalf("edit %d: subtree dirty set %+v drifted from edit 1 %+v", rep+1, d, deltas[1])
		}
		if d.SubtreeBlocksRecomputed == 0 || d.SubtreeBlocksRecomputed >= d.SubtreeBlocksReused {
			t.Fatalf("edit %d: %d blocks recomputed, %d reused; want recompute nonzero and dominated by reuse",
				rep+1, d.SubtreeBlocksRecomputed, d.SubtreeBlocksReused)
		}
	}

	// A cold cache computing only the last edit's dirty cells.
	freshRec := obs.NewRecorder()
	fresh := NewEngineObs(1, ted.NewCache(), freshRec)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if order[i] == victim || order[j] == victim {
				if _, err := fresh.Diverge(idxs[order[i]], idxs[order[j]], MetricTsem); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dirtyCold := freshRec.Snapshot().Counters["ted.dp_cells"]
	for rep, w := range work {
		if w*10 > cold || w*10 > dirtyCold {
			t.Fatalf("edit %d re-swept %d DP cells: more than a tenth of the cold sweep (%d) or of the dirty cells on a cold cache (%d)",
				rep, w, cold, dirtyCold)
		}
	}
}
