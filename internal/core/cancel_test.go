package core

// Cancellation regression tests (PR 10, satellite 1). The worker pool
// must stop granting tasks once the request context is canceled, and a
// canceled sweep must publish nothing to the matrix-cell memo — the memo
// only ever holds cells from sweeps that ran to completion, so a later
// identical request is exact.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"silvervale/internal/corpus"
	"silvervale/internal/ted"
)

// TestRunParallelCtxBoundedGrants pins the grant-boundary contract
// deterministically: with every worker blocked inside a granted task,
// cancel the context, then release the tasks. Each worker finishes its
// in-flight task (granted tasks run to completion) and then must observe
// the cancellation before pulling another index — so exactly `workers`
// tasks execute out of a much larger range, and the pool returns
// ctx.Err(). cancel() happens strictly before close(block), and the
// blocked workers cannot resume until the close, so the ordering is not
// timing-dependent.
func TestRunParallelCtxBoundedGrants(t *testing.T) {
	const workers, n = 4, 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	block := make(chan struct{})
	var started, executed atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- runParallelCtx(ctx, n, workers, func(i int) {
			started.Add(1)
			<-block
			executed.Add(1)
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for started.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers started a task", started.Load(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(block)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("runParallelCtx returned %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != workers {
		t.Fatalf("%d tasks executed after cancel, want exactly %d (one in-flight per worker, zero further grants)", got, workers)
	}
	if got := started.Load(); got != workers {
		t.Fatalf("%d tasks granted, want exactly %d", got, workers)
	}
}

// TestRunParallelCtxSerialCancel pins the same contract on the serial
// degenerate path (workers <= 1): cancellation from inside task i stops
// the loop before granting i+1.
func TestRunParallelCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	err := runParallelCtx(ctx, 10, 1, func(i int) {
		ran = append(ran, i)
		if i == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("serial runParallelCtx returned %v, want context.Canceled", err)
	}
	if len(ran) != 3 {
		t.Fatalf("serial path ran %v after cancel at i=2, want exactly [0 1 2]", ran)
	}
}

// TestRunParallelCtxUncanceled pins that a nil-cancel context costs
// nothing: the full range runs and the error is nil on both paths.
func TestRunParallelCtxUncanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var count atomic.Int64
		if err := runParallelCtx(context.Background(), 32, workers, func(i int) { count.Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != 32 {
			t.Fatalf("workers=%d: ran %d/32 tasks", workers, count.Load())
		}
	}
}

func memoLen(e *Engine) int {
	e.cellMu.Lock()
	defer e.cellMu.Unlock()
	return len(e.cellMemo)
}

// TestCanceledMatrixPublishesNothing is the satellite-1 regression: a
// canceled matrix sweep returns ctx.Err(), leaves the matrix-cell memo
// empty, and the next uncancelled sweep on the same engine is
// byte-identical to a fresh serial computation.
func TestCanceledMatrixPublishesNothing(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	e := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.MatrixCtx(ctx, idxs, order, MetricTsem); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled MatrixCtx returned %v, want context.Canceled", err)
	}
	if n := memoLen(e); n != 0 {
		t.Fatalf("canceled sweep published %d cells to the memo, want 0", n)
	}
	want, err := Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	if matrixBytes(got) != matrixBytes(want) {
		t.Fatalf("post-cancel sweep differs from serial\nserial: %v\ngot:    %v", want, got)
	}
	if n := memoLen(e); n == 0 {
		t.Fatal("completed sweep published nothing — memo wiring broken")
	}
}

// TestCanceledTieredMatrixPublishesNothing extends the regression to a
// routed sweep: a canceled tiered sweep publishes no cells (and no tier
// provenance) to the memo.
func TestCanceledTieredMatrixPublishesNothing(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	e := NewEngine(1)
	policy := ted.TierPolicy{Budget: ted.ScreeningBudget}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.MatrixTieredCtx(ctx, idxs, order, MetricTsem, policy); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled MatrixTieredCtx returned %v, want context.Canceled", err)
	}
	if n := memoLen(e); n != 0 {
		t.Fatalf("canceled tiered sweep published %d cells, want 0", n)
	}
	want, err := NewEngine(1).MatrixTiered(idxs, order, MetricTsem, policy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MatrixTiered(idxs, order, MetricTsem, policy)
	if err != nil {
		t.Fatal(err)
	}
	if matrixBytes(got.Values) != matrixBytes(want.Values) {
		t.Fatalf("post-cancel tiered sweep differs from fresh engine")
	}
}

// TestCanceledFromBase pins FromBaseCtx's discard-partials rule.
func TestCanceledFromBase(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	e := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := e.FromBaseCtx(ctx, idxs, "f-sequential", order, MetricTsem); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled FromBaseCtx returned (%v, %v), want (nil, context.Canceled)", out, err)
	}
	want, err := FromBase(idxs, "f-sequential", order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.FromBase(idxs, "f-sequential", order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("post-cancel FromBase differs at %s: %v vs %v", k, got[k], v)
		}
	}
}

// TestCanceledIndexReturnsNothing pins the index pipeline: a canceled
// IndexCodebaseCtx yields (nil, ctx.Err()), never a partial Index.
func TestCanceledIndexReturnsNothing(t *testing.T) {
	app, err := corpus.AppByName("babelstream-fortran")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.ModelsFor(app)[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx, err := IndexCodebaseCtx(ctx, cb, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) || idx != nil {
		t.Fatalf("canceled IndexCodebaseCtx returned (%v, %v), want (nil, context.Canceled)", idx, err)
	}
	idx2, err := NewEngine(1).IndexCodebaseCtx(ctx, cb, Options{})
	if !errors.Is(err, context.Canceled) || idx2 != nil {
		t.Fatalf("canceled engine IndexCodebaseCtx returned (%v, %v), want (nil, context.Canceled)", idx2, err)
	}
}
