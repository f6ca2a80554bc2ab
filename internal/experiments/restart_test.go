package experiments

// An environment loads an app's indexes, and profiles its ports, as one
// task per port on the engine's worker pool. These tests pin what that
// must not change: a canceled build caches nothing, and a warm restart
// from the store yields the same trees and chart bytes at every worker
// count as the cold run that filled it.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"silvervale/internal/store"
	"silvervale/internal/tree"
)

func TestIndexesCanceledCachesNothing(t *testing.T) {
	e := NewEnvWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.IndexesCtx(ctx, "babelstream"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v, want context.Canceled", err)
	}
	e.mu.Lock()
	_, cached := e.cache["babelstream"]
	e.mu.Unlock()
	if cached {
		t.Fatal("canceled build cached an index map")
	}
	idxs, order, err := e.IndexesCtx(context.Background(), "babelstream")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range order {
		if idxs[m] == nil || len(idxs[m].Units) == 0 {
			t.Fatalf("next build left model %s without an index", m)
		}
	}
}

// restartOutputs is what one store-backed pass produces: every unit
// tree's fingerprint (recomputed from the tree, keyed model/role/metric),
// the measured navigation chart's bytes, and the store's hit count.
type restartOutputs struct {
	fps   map[string]tree.Fingerprint
	chart []byte
	hits  uint64
}

func storePass(t *testing.T, dir string, workers int) restartOutputs {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnvStore(workers, nil, st)
	if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
		t.Fatal(err)
	}
	idxs, order, err := e.Indexes("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	out := restartOutputs{fps: map[string]tree.Fingerprint{}}
	for _, m := range order {
		for i := range idxs[m].Units {
			u := &idxs[m].Units[i]
			for metric, tr := range u.Trees {
				fp := tr.Fingerprint()
				if u.TreeFingerprint(metric) != fp {
					t.Fatalf("workers=%d %s/%s %s: recorded fingerprint differs from the tree's", workers, m, u.Role, metric)
				}
				out.fps[m+"/"+u.Role+"/"+metric] = fp
			}
		}
	}
	ch, err := e.NavChart("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.chart = buf.Bytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	out.hits = st.Stats().Hits
	return out
}

func TestWarmRestartSameAtEveryWorkerCount(t *testing.T) {
	dir := t.TempDir()
	cold := storePass(t, dir, 1)
	if len(cold.fps) == 0 {
		t.Fatal("cold pass indexed no trees")
	}
	for _, workers := range []int{1, 2} {
		warm := storePass(t, dir, workers)
		if warm.hits == 0 {
			t.Fatalf("workers=%d: warm restart made no store hits", workers)
		}
		if len(warm.fps) != len(cold.fps) {
			t.Fatalf("workers=%d: %d trees, cold run had %d", workers, len(warm.fps), len(cold.fps))
		}
		for k, fp := range cold.fps {
			if warm.fps[k] != fp {
				t.Fatalf("workers=%d: %s fingerprint differs from the cold run", workers, k)
			}
		}
		if !bytes.Equal(warm.chart, cold.chart) {
			t.Fatalf("workers=%d: navigation chart bytes differ from the cold run", workers)
		}
	}
}
