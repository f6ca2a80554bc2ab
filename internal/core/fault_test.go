package core

import (
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/faultfs"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// buildMatrixFaulted mirrors buildMatrixWithStore but threads a recorder
// through NewEngineStore (which rewires the store's recorder to the
// engine's), so the trip counter is observable.
func buildMatrixFaulted(t *testing.T, workers int, st *store.Store, rec *obs.Recorder) ([][]float64, []string) {
	t.Helper()
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineStore(workers, ted.NewCache(), rec, st)
	idxs := map[string]*Index{}
	var order []string
	for _, m := range corpus.ModelsFor(app) {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := e.IndexCodebase(cb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idxs[string(m)] = idx
		order = append(order, string(m))
	}
	mat, err := e.Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	return mat, order
}

// TestDegradedStoreMatrixEquivalence is the degraded-equivalence gate of
// ISSUE 5: an engine over a store whose disk fails on every operation
// must produce matrices bit-identical to a memory-only engine at every
// worker count, and the breaker must fire exactly once per store no
// matter how many workers hammer it. Run under -race this also checks the
// trip path for data races.
func TestDegradedStoreMatrixEquivalence(t *testing.T) {
	cold, coldOrder := buildMatrixWithStore(t, 2, nil)

	workerCounts := []int{1, 2, 4, 8}
	if raceEnabled {
		workerCounts = []int{1, 4}
	}
	for _, workers := range workerCounts {
		// Open succeeds (MkdirAll is op 1), everything after fails.
		fsys := faultfs.New(faultfs.OS{}, faultfs.Fault{N: 2, Sticky: true, Class: faultfs.ENOSPC})
		st, err := store.Open(t.TempDir(), store.Options{FS: fsys, DegradeThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		mat, order := buildMatrixFaulted(t, workers, st, rec)
		if !st.Degraded() {
			t.Fatalf("workers=%d: store never degraded", workers)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("workers=%d: non-strict Close: %v", workers, err)
		}
		if got := rec.Snapshot().Counters["store.degraded"]; got != 1 {
			t.Fatalf("workers=%d: store.degraded = %d, want exactly 1", workers, got)
		}
		if len(order) != len(coldOrder) {
			t.Fatalf("workers=%d: order length changed", workers)
		}
		for i := range order {
			if order[i] != coldOrder[i] {
				t.Fatalf("workers=%d: model order changed", workers)
			}
		}
		if !sameBits(cold, mat) {
			t.Fatalf("workers=%d: degraded matrix differs from memory-only", workers)
		}
	}
}
