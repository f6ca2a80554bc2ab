package core

// Observability stress test: the instrumented engine must stay
// race-clean (tier-1 runs this package under -race), its span tree must
// be structurally sound at every worker count, and the deterministic
// counters must match the serial run exactly. Scheduling-dependent
// numbers (cache hits vs misses under contention) are deliberately not
// compared.

import (
	"testing"

	"silvervale/internal/obs"
	"silvervale/internal/ted"
)

// runInstrumentedMatrix runs one Matrix sweep on a fresh recorder, cache,
// and engine, and returns the recorder and the matrix bytes.
func runInstrumentedMatrix(t *testing.T, idxs map[string]*Index, order []string, workers int) (*obs.Recorder, string) {
	t.Helper()
	rec := obs.NewRecorder()
	engine := NewEngineObs(workers, ted.NewCache(), rec)
	m, err := engine.Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	return rec, matrixBytes(m)
}

// checkSpanTree validates structural invariants of a recorded span set:
// unique IDs, parents that exist, non-negative durations, and children
// that start no earlier than their parent.
func checkSpanTree(t *testing.T, spans []obs.SpanRecord) {
	t.Helper()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %d (%s)", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Dur)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s is orphaned: parent %d not recorded", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start {
			t.Errorf("span %s starts %v before its parent %s", s.Name, p.Start-s.Start, p.Name)
		}
	}
}

func TestObsEngineStress(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")

	// Serial instrumented run is the reference for deterministic counters.
	refRec, refBytes := runInstrumentedMatrix(t, idxs, order, 1)
	refSnap := refRec.Snapshot()
	deterministic := []string{"incr.cells_recomputed", "engine.tasks", "ted.calls"}
	for _, name := range deterministic {
		if refSnap.Counters[name] == 0 {
			t.Fatalf("serial run recorded no %s", name)
		}
	}
	checkSpanTree(t, refRec.Spans())

	for _, workers := range []int{2, 4, 8} {
		rec, gotBytes := runInstrumentedMatrix(t, idxs, order, workers)
		if gotBytes != refBytes {
			t.Fatalf("workers=%d: instrumented matrix differs from serial", workers)
		}
		spans := rec.Spans()
		checkSpanTree(t, spans)
		// Exactly one engine.matrix root, and one engine.cell per
		// recomputed cell.
		var roots, cells int
		for _, s := range spans {
			switch s.Name {
			case "engine.matrix":
				roots++
			case "engine.cell":
				cells++
			}
		}
		if roots != 1 {
			t.Errorf("workers=%d: %d engine.matrix spans, want 1", workers, roots)
		}
		if want := int(refSnap.Counters["incr.cells_recomputed"]); cells != want {
			t.Errorf("workers=%d: %d engine.cell spans, want %d", workers, cells, want)
		}
		snap := rec.Snapshot()
		for _, name := range deterministic {
			if snap.Counters[name] != refSnap.Counters[name] {
				t.Errorf("workers=%d: counter %s = %d, serial = %d",
					workers, name, snap.Counters[name], refSnap.Counters[name])
			}
		}
	}
}

func TestResolveWorkersClamping(t *testing.T) {
	n := ResolveWorkers(0) // NumCPU
	if n < 1 {
		t.Fatalf("ResolveWorkers(0) = %d", n)
	}
	cases := map[int]int{
		0:     n, // default: all CPUs
		-3:    n, // negative clamps up
		1:     1, // serial stays serial
		n:     n,
		n + 7: n, // oversubscription clamps down
	}
	for req, want := range cases {
		if got := ResolveWorkers(req); got != want {
			t.Errorf("ResolveWorkers(%d) = %d, want %d", req, got, want)
		}
	}
	if got := NewEngine(2 * n).Workers(); got != n {
		t.Errorf("NewEngine(%d).Workers() = %d, want %d", 2*n, got, n)
	}
	if got := (Options{Workers: -1}).ResolvedWorkers(); got != n {
		t.Errorf("Options{Workers: -1}.ResolvedWorkers() = %d, want %d", got, n)
	}
}
