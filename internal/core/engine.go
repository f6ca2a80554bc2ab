package core

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// Engine is the concurrent divergence engine: a bounded worker pool plus a
// shared content-addressed TED cache. It computes exactly the same numbers
// as the serial package-level functions (Diverge, Matrix, FromBase,
// ApproxDiverge) — every per-pair computation is self-contained and runs
// its floating-point accumulation in the same order — but schedules
// independent cells across workers and short-circuits repeated tree pairs
// through the cache. One Engine can be shared freely across goroutines;
// experiment sweeps and clustering runs should reuse a single Engine so
// every Matrix/FromBase call amortises the same memo — which includes the
// per-tree flat memo (DESIGN.md §6): across a sweep each distinct tree is
// flattened to its Zhang–Shasha form once, no matter how many cells
// reference it.
type Engine struct {
	workers int
	cache   *ted.Cache

	// astore is the optional persistent artifact store (nil when absent):
	// IndexCodebase warm-starts from its index tier, and NewEngineStore
	// wires the cache's distance tier through it.
	astore *store.Store

	// observability (all nil when disabled — the no-op hot path)
	rec        *obs.Recorder
	tasks      *obs.Counter   // engine.tasks — worker-pool tasks executed
	taskNS     *obs.Histogram // engine.task_ns — per-task latency
	queueDepth *obs.Histogram // engine.queue_depth — remaining tasks at dequeue

	// counts is the engine's always-on accounting (tier routing and
	// incremental reuse), adopted by the recorder under the ted.tier_* and
	// incr.* names. subReused/subRecomputed are the cache's own subtree-
	// block counters: the sub-cell reuse split is counted once, by the
	// cache that sees it (DESIGN.md §13).
	counts                   *engineCounters
	subReused, subRecomputed *obs.Counter

	// cell memo: the matrix-cell invalidation layer (DESIGN.md §12) and
	// the only matrix memo. Every sweep memoises each computed cell, with
	// its tier provenance, under (per-side metric hash, metric, screen
	// bit); warm re-sweeps recompute only cells whose key changed.
	cellMu   sync.Mutex
	cellMemo map[cellKey]cellVal

	// units is the unit memo (DESIGN.md §12): every engine index that
	// runs the pipeline serves each unit it indexed before from here.
	units *unitMemo
}

// engineCounters are the engine's cumulative counts since construction,
// allocated apart from the Engine like the cache's (ted.cacheCounters).
type engineCounters struct {
	tierPairs     obs.Counter // pairs routed by a tier policy
	tierExact     obs.Counter // pairs refined with exact Zhang–Shasha
	tierEstimated obs.Counter // pairs estimated from the pq-gram distance
	tierFar       obs.Counter // pairs estimated from LSH signatures alone

	unitsReused     obs.Counter // parsed units served from the unit memo
	unitsReparsed   obs.Counter // units re-run through the frontend
	cellsReused     obs.Counter // matrix cells served from the cell memo
	cellsRecomputed obs.Counter // matrix cells recomputed
}

// NewEngine returns an engine with the given worker-pool bound and a fresh
// shared cache. workers <= 0 selects runtime.NumCPU().
func NewEngine(workers int) *Engine {
	return NewEngineObs(workers, ted.NewCache(), nil)
}

// NewEngineObs returns an engine over cache (which must be non-nil; an
// engine always owns a TED cache) wired to an observability recorder: the
// worker pool records task latency and queue depth, Matrix/FromBase emit
// span trees, and the cache feeds the ted.* counters. A nil recorder
// yields exactly the uninstrumented engine — the obs handles stay nil and
// every hook is a pointer check.
func NewEngineObs(workers int, cache *ted.Cache, rec *obs.Recorder) *Engine {
	e := &Engine{
		workers:    ResolveWorkers(workers),
		cache:      cache,
		rec:        rec,
		tasks:      rec.Counter("engine.tasks"),
		taskNS:     rec.Histogram("engine.task_ns"),
		queueDepth: rec.Histogram("engine.queue_depth"),
		counts:     &engineCounters{},
		cellMemo:   map[cellKey]cellVal{},
		units:      newUnitMemo(),
	}
	e.subReused, e.subRecomputed = cache.SubtreeBlockCounters()
	cache.SetRecorder(rec)
	k := e.counts
	for name, c := range map[string]*obs.Counter{
		"ted.tier_pairs":                 &k.tierPairs,
		"ted.tier_exact":                 &k.tierExact,
		"ted.tier_estimated":             &k.tierEstimated,
		"ted.tier_far":                   &k.tierFar,
		"incr.cells_reused":              &k.cellsReused,
		"incr.cells_recomputed":          &k.cellsRecomputed,
		"incr.subtree_blocks_reused":     e.subReused,
		"incr.subtree_blocks_recomputed": e.subRecomputed,
	} {
		rec.Adopt(name, c)
	}
	return e
}

// workerLogOnce backs the log-once guarantee of ResolveWorkers.
var workerLogOnce sync.Once

// ResolveWorkers maps a requested worker count onto the bound the pool
// actually uses: values <= 0 select runtime.NumCPU(), and values above
// NumCPU clamp down to it (extra goroutines cannot speed up the CPU-bound
// TED work). The first resolution that changes the requested value is
// logged once per process, so `-workers 0` / oversubscribed runs say what
// they actually got.
func ResolveWorkers(requested int) int {
	n := runtime.NumCPU()
	resolved := requested
	if requested <= 0 || requested > n {
		resolved = n
	}
	if resolved != requested {
		workerLogOnce.Do(func() {
			log.Printf("core: worker pool resolved to %d (requested %d, NumCPU %d)", resolved, requested, n)
		})
	}
	return resolved
}

// Workers returns the resolved worker-pool bound actually in use.
func (e *Engine) Workers() int { return e.workers }

// Recorder returns the engine's observability recorder (nil when
// observability is off).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Cache returns the engine's shared TED cache.
func (e *Engine) Cache() *ted.Cache { return e.cache }

// CacheStats reports the shared cache's effectiveness counters.
func (e *Engine) CacheStats() ted.CacheStats { return e.cache.Stats() }

// Diverge is the engine form of Diverge: identical results, cached TED.
func (e *Engine) Diverge(a, b *Index, metric string) (Divergence, error) {
	return divergeWith(a, b, metric, e.cache.DistanceFP)
}

// DivergeWithCosts is the engine form of DivergeWithCosts.
func (e *Engine) DivergeWithCosts(a, b *Index, metric string, costs ted.Costs) (Divergence, error) {
	return divergeWithCosts(a, b, metric, costs, e.cache.DistanceFP)
}

// ApproxDiverge is the engine form of ApproxDiverge: pq-gram profiles and
// pair distances are memoised in the shared cache.
func (e *Engine) ApproxDiverge(a, b *Index, metric string) (Divergence, error) {
	return approxDivergeWith(a, b, metric, e.cache.ApproxDistance)
}

// Matrix computes the same pairwise matrix as the package-level Matrix,
// with the upper-triangle cells distributed over the worker pool. Output
// is deterministic regardless of scheduling: every cell (i,j) is a pure
// function of the pair, each worker writes only its own cells, and errors
// are reported in the same order the serial loop would encounter them.
// Cells read through the engine's cell memo (DESIGN.md §12): a warm
// re-sweep after an edit recomputes only the cells whose metric-hash pair
// changed and serves the rest bit-identically from the memo.
func (e *Engine) Matrix(idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	return e.MatrixCtx(context.Background(), idxs, order, metric)
}

// MatrixCtx is Matrix under a cancellation context: the sweep checks ctx
// at every task grant and returns ctx.Err() once canceled. A canceled
// sweep publishes nothing to the engine's cell memo — completed cells are
// discarded along with the rest, so the memo only ever holds cells from
// sweeps that ran to completion. Individual TED distances finished before
// the cancellation remain in the shared cache; each is a complete exact
// result, so a later identical request stays bit-identical to cold.
func (e *Engine) MatrixCtx(ctx context.Context, idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	return e.matrixMemo(ctx, idxs, order, metric, ted.TierPolicy{}, nil)
}

// matrixMemo is the one memoised matrix sweep (DESIGN.md §12), behind
// Matrix and MatrixTiered. Clean cells are served from the cell memo;
// each dirty cell is one worker-pool task. A screening sweep (a policy
// that routes, on a tree metric) sends matched pairs through
// Cache.TierRoute and runs exact TED only on the pairs routed exact.
// When cells is non-nil it receives every cell's tier provenance.
func (e *Engine) matrixMemo(ctx context.Context, idxs map[string]*Index, order []string, metric string, policy ted.TierPolicy, cells [][]TierCell) ([][]float64, error) {
	n := len(order)
	for _, name := range order {
		if _, ok := idxs[name]; !ok {
			return nil, fmt.Errorf("core: no index for model %q", name)
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	type pos struct{ i, j int }
	var all []pos
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, pos{i, j})
		}
	}
	sp := e.rec.Start("engine.matrix").Arg("metric", metric)
	screen := policy.Enabled() && isTreeMetric(metric)
	if screen {
		sp.Arg("policy", policy.String())
	}

	// Memo pass: serve clean cells, keep the dirty ones as work. The
	// metric hash per side is computed once per sweep; map lookups are
	// serial (they are nanoseconds next to any recomputation).
	hs := make([]store.ContentHash, n)
	for i, name := range order {
		hs[i] = MetricHash(idxs[name], metric)
	}
	set := func(c pos, v cellVal) {
		m[c.i][c.j], m[c.j][c.i] = v.norm, v.rev
		if cells != nil {
			cells[c.i][c.j], cells[c.j][c.i] = v.tc, v.tc
		}
	}
	var work []pos
	keys := make([]cellKey, 0, len(all))
	for _, c := range all {
		key := cellKey{a: hs[c.i], b: hs[c.j], metric: metric, screen: screen}
		if v, ok := e.cellLookup(key); ok {
			set(c, v)
			continue
		}
		work = append(work, c)
		keys = append(keys, key)
	}
	e.countCells(len(all)-len(work), len(work))

	errs := make([]error, len(work))
	vals := make([]cellVal, len(work))
	ctxErr := e.runParallel(ctx, len(work), sp, "engine.cell", func(k int) {
		vals[k], errs[k] = e.cell(idxs[order[work[k].i]], idxs[order[work[k].j]], metric, policy, screen)
	})
	sp.End()
	if ctxErr != nil {
		// Canceled mid-sweep: the vals slots of unstarted cells are zero
		// and must never reach the memo, so the whole sweep publishes
		// nothing (all-or-nothing, like the store's index records).
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k, c := range work {
		set(c, vals[k])
		e.cellStore(keys[k], vals[k])
	}
	return m, nil
}

// cell computes one matrix cell: both normalised orientations and its
// tier provenance. A tree-metric cell runs divergeTrees' one
// accumulation order over its matched pairs, so its value is
// bit-identical across runs and worker counts; on a screening sweep each
// pair first routes through Cache.TierRoute, and only pairs routed exact
// run exact TED. The absolute metrics are symmetric; every other metric
// normalises the reverse direction by a's weight (Eq. 7).
func (e *Engine) cell(a, b *Index, metric string, policy ted.TierPolicy, screen bool) (cellVal, error) {
	var d Divergence
	var tc TierCell
	if isTreeMetric(metric) {
		d = divergeTrees(a, b, metric, ted.UnitCosts(), func(ta, tb *tree.Node, fa, fb tree.Fingerprint) float64 {
			if screen {
				switch est, tier := e.cache.TierRouteFP(ta, tb, fa, fb, policy); tier {
				case ted.TierEstimated:
					tc.Estimated++
					return est
				case ted.TierFar:
					tc.Far++
					return est
				}
			}
			tc.Exact++
			return float64(e.cache.DistanceFP(ta, tb, fa, fb, ted.UnitCosts()))
		})
	} else {
		var err error
		if d, err = e.Diverge(a, b, metric); err != nil {
			return cellVal{}, err
		}
	}
	if metric == MetricSLOC || metric == MetricLLOC {
		return cellVal{norm: d.Norm, rev: d.Norm}, nil
	}
	return cellVal{norm: d.Norm, rev: safeDiv(d.Raw, Weight(a, metric)), tc: tc}, nil
}

// FromBase computes the same per-model divergence-from-base map as the
// package-level FromBase, one model per worker-pool task.
func (e *Engine) FromBase(idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	return e.FromBaseCtx(context.Background(), idxs, base, order, metric)
}

// FromBaseCtx is FromBase under a cancellation context: ctx is checked at
// every task grant, and a canceled sweep returns ctx.Err() with no output
// map (the same discard-partials rule as MatrixCtx).
func (e *Engine) FromBaseCtx(ctx context.Context, idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	ib, ok := idxs[base]
	if !ok {
		return nil, fmt.Errorf("core: no index for base model %q", base)
	}
	for _, name := range order {
		if _, ok := idxs[name]; !ok {
			return nil, fmt.Errorf("core: no index for model %q", name)
		}
	}
	sp := e.rec.Start("engine.frombase").Arg("metric", metric).Arg("base", base)
	vals := make([]float64, len(order))
	errs := make([]error, len(order))
	ctxErr := e.runParallel(ctx, len(order), sp, "engine.compare", func(k int) {
		d, err := e.Diverge(ib, idxs[order[k]], metric)
		if err != nil {
			errs[k] = err
			return
		}
		vals[k] = d.Norm
	})
	sp.End()
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(order))
	for k, name := range order {
		out[name] = vals[k]
	}
	return out, nil
}

// IndexCodebase runs the extraction pipeline with the engine's worker
// pool and recorder (equivalent to IndexCodebase with Options.Workers and
// Options.Recorder set), through the engine's unit memo: a unit the engine
// indexed before is served, not re-parsed (DESIGN.md §12), and counted in
// incr.units_reused. With a persistent store attached, the codebase is
// first looked up in the store's index tier by content hash and options
// digest; misses run the pipeline and persist the result for the next
// run. Non-default option sets (coverage masks, KeepSystemHeaders
// ablations) warm-start too — their digest keys them to their own
// records, so two option sets can never cross-contaminate.
func (e *Engine) IndexCodebase(cb *corpus.Codebase, opts Options) (*Index, error) {
	return e.IndexCodebaseCtx(context.Background(), cb, opts)
}

// IndexCodebaseCtx is IndexCodebase under a cancellation context: the
// per-unit pipeline checks ctx at every task grant, and a canceled run
// returns ctx.Err() without persisting anything — the store's index tier
// only ever receives fully built indexes.
func (e *Engine) IndexCodebaseCtx(ctx context.Context, cb *corpus.Codebase, opts Options) (*Index, error) {
	opts = e.indexOpts(opts)
	if e.astore != nil {
		return e.indexCodebaseStored(ctx, cb, opts)
	}
	idx, _, err := e.indexMemo(ctx, cb, nil, opts)
	return idx, err
}

// RunTasks executes fn(0..n-1) as tasks on the engine's worker pool, under
// the rules every sweep follows: at most Workers() tasks run at once,
// cancellation is checked at each task grant, and fn must write only to
// its own slot. Callers above the engine (the experiments environment's
// per-port index loads and profiles) run on it so one worker bound
// covers all of a process's CPU-bound work. The returned error is
// ctx.Err() when the context was canceled, nil otherwise.
func (e *Engine) RunTasks(ctx context.Context, n int, fn func(int)) error {
	return e.runParallel(ctx, n, nil, "", fn)
}

// runParallel executes fn(0..n-1) on at most e.workers goroutines under a
// cancellation context. With a single worker (or a single task) it
// degenerates to the serial loop — no goroutines, no synchronisation — so
// serial baselines stay untouched. When the engine carries a recorder,
// each task additionally records a child span under parent, its latency,
// and the queue depth it observed. Cancellation is checked at every task
// grant (see runParallelCtx); the returned error is ctx.Err() when the
// context was canceled, nil otherwise.
func (e *Engine) runParallel(ctx context.Context, n int, parent *obs.Span, spanName string, fn func(int)) error {
	if e.rec != nil {
		inner := fn
		fn = func(i int) {
			e.queueDepth.Observe(int64(n - i))
			start := time.Now()
			tsp := parent.Start(spanName)
			inner(i)
			tsp.End()
			e.taskNS.Observe(time.Since(start).Nanoseconds())
			e.tasks.Add(1)
		}
	}
	return runParallelCtx(ctx, n, e.workers, fn)
}

// runParallelCtx is the shared bounded pool: workers goroutines pull task
// indices off an atomic counter until the range is drained. Tasks must
// write only to their own slots; the final WaitGroup join publishes all
// writes to the caller.
//
// Cancellation is checked at every task grant — before a worker pulls its
// next index — never inside a task: once granted, a task runs to
// completion, so each of its writes (including anything it published to
// the shared TED cache) is a complete, exact result. After cancellation
// the pool therefore stops within at most `workers` further task
// completions and zero further grants, and the returned ctx.Err() tells
// the caller to discard the partially filled output slots rather than
// publish them anywhere.
func runParallelCtx(ctx context.Context, n, workers int, fn func(int)) error {
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}
