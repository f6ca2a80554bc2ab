package core

import (
	"context"
	"fmt"

	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// Tiered matrix sweeps (DESIGN.md §10). MatrixTiered computes the same
// pairwise divergence matrix as Matrix, but routes each matched tree pair
// through the cache's tier policy first: an approximate pass (LSH
// signatures, then pq-gram distance) classifies every pair, and only the
// pairs routed TierExact are scheduled into the exact Zhang–Shasha
// refinement phase. The schedule is three phases —
//
//	A. route: the worker pool runs TierRoute over every matrix cell,
//	   producing a cellPlan per cell (pure function of the pair);
//	B. refine: the worker pool runs exact TED over the flattened list of
//	   (cell, pair) tasks that routed exact — so the expensive DP work,
//	   not the cells, is what load-balances across workers;
//	C. reduce: each cell accumulates its contributions serially in
//	   exactly divergeTrees' order (pairs, then only-A, then only-B), so
//	   the output is bit-identical across runs and worker counts.
//
// Below ted.ScreeningBudget the policy is disabled and MatrixTiered
// delegates to the exact Matrix path — byte-identical by construction,
// pinned by the equivalence gate in tier_test.go.

// TierCell is the per-cell tier provenance: how many matched tree pairs
// of the cell were refined exactly versus estimated. Unmatched units are
// exact by definition (their contribution is their node count) and are
// not counted.
type TierCell struct {
	Exact, Estimated, Far int
}

// Pairs returns the total matched pairs the cell routed.
func (c TierCell) Pairs() int { return c.Exact + c.Estimated + c.Far }

// TierStats aggregates routing counts over a sweep (or over an engine's
// lifetime, via Engine.TierStats).
type TierStats struct {
	Pairs, Exact, Estimated, Far uint64
}

func (s *TierStats) add(c TierCell) {
	s.Pairs += uint64(c.Pairs())
	s.Exact += uint64(c.Exact)
	s.Estimated += uint64(c.Estimated)
	s.Far += uint64(c.Far)
}

// Line renders the post-sweep tier stats line the CLI prints.
func (s TierStats) Line(p ted.TierPolicy) string {
	return fmt.Sprintf("ted tiering (%s): %d pairs: %d exact, %d estimated, %d lsh-far",
		p, s.Pairs, s.Exact, s.Estimated, s.Far)
}

// TierStats returns the engine's cumulative routing counts across every
// tiered call since construction.
func (e *Engine) TierStats() TierStats {
	k := e.counts
	return TierStats{
		Pairs:     uint64(k.tierPairs.Value()),
		Exact:     uint64(k.tierExact.Value()),
		Estimated: uint64(k.tierEstimated.Value()),
		Far:       uint64(k.tierFar.Value()),
	}
}

// countTier folds one cell's provenance into the engine's cumulative
// routing counts.
func (e *Engine) countTier(c TierCell) {
	k := e.counts
	k.tierPairs.Add(int64(c.Pairs()))
	k.tierExact.Add(int64(c.Exact))
	k.tierEstimated.Add(int64(c.Estimated))
	k.tierFar.Add(int64(c.Far))
}

// tierable reports whether a sweep under (metric, policy) actually routes
// pairs: the policy must be enabled and the metric must be a tree metric —
// everything else delegates to the exact path.
func (e *Engine) tierable(metric string, p ted.TierPolicy) bool {
	if !p.Enabled() {
		return false
	}
	switch metric {
	case MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir:
		return true
	}
	return false
}

// exactCell is the provenance of a cell computed on the exact path: every
// matched tree pair counts as TierExact. Non-tree metrics have no tree
// pairs to route and report the zero cell.
func exactCell(a, b *Index, metric string) TierCell {
	switch metric {
	case MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir:
		pairs, _, _ := match(a, b)
		return TierCell{Exact: len(pairs)}
	}
	return TierCell{}
}

// pairRoute is one matched tree pair's routing decision. For TierExact
// routes, est is filled in by the refinement phase; for estimated routes
// it already holds the clamped estimate.
type pairRoute struct {
	ta, tb *tree.Node
	w      float64 // tb's node count — the pair's dmax contribution
	est    float64
	tier   ted.Tier
}

// cellPlan is one matrix cell after the routing phase: the matched pairs
// in match() order plus the unmatched units' node counts, everything
// reduce needs to replay divergeTrees' accumulation exactly.
type cellPlan struct {
	metric       string
	routes       []pairRoute
	onlyA, onlyB []float64
}

// planCell routes every matched pair of one cell under the policy.
func (e *Engine) planCell(a, b *Index, metric string, p ted.TierPolicy) *cellPlan {
	pairs, onlyA, onlyB := match(a, b)
	plan := &cellPlan{metric: metric, routes: make([]pairRoute, len(pairs))}
	for i, pr := range pairs {
		ta, tb := pr[0].Trees[metric], pr[1].Trees[metric]
		r := pairRoute{ta: ta, tb: tb, w: float64(tb.Size())}
		r.est, r.tier = e.cache.TierRoute(ta, tb, p)
		plan.routes[i] = r
	}
	for _, u := range onlyA {
		plan.onlyA = append(plan.onlyA, float64(u.Trees[metric].Size()))
	}
	for _, u := range onlyB {
		plan.onlyB = append(plan.onlyB, float64(u.Trees[metric].Size()))
	}
	return plan
}

// reduce folds a refined plan into a Divergence, accumulating in the same
// order as divergeTrees: matched pairs, then only-A, then only-B.
func (p *cellPlan) reduce() (Divergence, TierCell) {
	raw, dmax := 0.0, 0.0
	var tc TierCell
	for i := range p.routes {
		r := &p.routes[i]
		raw += r.est
		dmax += r.w
		switch r.tier {
		case ted.TierExact:
			tc.Exact++
		case ted.TierEstimated:
			tc.Estimated++
		case ted.TierFar:
			tc.Far++
		}
	}
	for _, n := range p.onlyA {
		raw += n
	}
	for _, n := range p.onlyB {
		raw += n
		dmax += n
	}
	return Divergence{Metric: p.metric, Raw: raw, DMax: dmax, Norm: safeDiv(raw, dmax)}, tc
}

// TieredMatrix bundles the matrix values with per-cell tier provenance
// and the sweep's routing counts. Cells[i][j] and Cells[j][i] mirror the
// same cell; the diagonal is zero.
type TieredMatrix struct {
	Values [][]float64
	Cells  [][]TierCell
	Stats  TierStats
	Policy ted.TierPolicy
}

// MatrixTiered computes the pairwise divergence matrix under a tier
// policy. Below ted.ScreeningBudget (or for non-tree metrics) the values
// are produced by the exact Matrix path and are byte-identical to it;
// otherwise the three-phase route/refine/reduce schedule runs, and every
// cell's |tiered − exact| error is bounded by the policy's budget (the
// exact-vs-tiered harness pins this on the seed corpora).
func (e *Engine) MatrixTiered(idxs map[string]*Index, order []string, metric string, policy ted.TierPolicy) (*TieredMatrix, error) {
	return e.MatrixTieredCtx(context.Background(), idxs, order, metric, policy)
}

// MatrixTieredCtx is MatrixTiered under a cancellation context. Both
// worker-pool phases (route and refine) check ctx at task-grant
// boundaries; a canceled sweep returns ctx.Err() before Phase C, so
// nothing is published to the matrix-cell memo.
func (e *Engine) MatrixTieredCtx(ctx context.Context, idxs map[string]*Index, order []string, metric string, policy ted.TierPolicy) (*TieredMatrix, error) {
	n := len(order)
	for _, name := range order {
		if _, ok := idxs[name]; !ok {
			return nil, fmt.Errorf("core: no index for model %q", name)
		}
	}
	tm := &TieredMatrix{Policy: policy, Values: make([][]float64, n), Cells: make([][]TierCell, n)}
	for i := range tm.Cells {
		tm.Cells[i] = make([]TierCell, n)
	}

	if !e.tierable(metric, policy) {
		vals, err := e.MatrixCtx(ctx, idxs, order, metric)
		if err != nil {
			return nil, err
		}
		tm.Values = vals
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				tc := exactCell(idxs[order[i]], idxs[order[j]], metric)
				tm.Cells[i][j], tm.Cells[j][i] = tc, tc
				tm.Stats.add(tc)
				e.countTier(tc)
			}
		}
		return tm, nil
	}

	for i := range tm.Values {
		tm.Values[i] = make([]float64, n)
	}
	type cellIdx struct{ i, j int }
	var cells []cellIdx
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cells = append(cells, cellIdx{i, j})
		}
	}
	sp := e.rec.Start("engine.matrix_tiered").Arg("metric", metric).Arg("policy", policy.String())
	e.cells.Add(int64(len(cells)))

	// Memo pass (DESIGN.md §12): clean cells — same metric-hash pair,
	// same costs, same rendered policy — skip routing entirely and are
	// served with their recorded tier provenance; only dirty cells enter
	// the route/refine/reduce schedule.
	hs := make([]store.ContentHash, n)
	for i, name := range order {
		hs[i] = MetricHash(idxs[name], metric)
	}
	ps := policy.String()
	var work []cellIdx
	keys := make([]cellKey, 0, len(cells))
	for _, c := range cells {
		key := cellKey{a: hs[c.i], b: hs[c.j], metric: metric, costs: ted.UnitCosts(), policy: ps}
		if v, ok := e.cellLookup(key); ok {
			tm.Values[c.i][c.j], tm.Values[c.j][c.i] = v.norm, v.rev
			tm.Cells[c.i][c.j], tm.Cells[c.j][c.i] = v.tc, v.tc
			tm.Stats.add(v.tc)
			e.countTier(v.tc)
			continue
		}
		work = append(work, c)
		keys = append(keys, key)
	}
	e.countCells(len(cells)-len(work), len(work))

	// Phase A: route every dirty cell. Each task writes only its own
	// plan slot.
	plans := make([]*cellPlan, len(work))
	ctxErr := e.runParallel(ctx, len(work), sp, "engine.tier_route", func(k int) {
		i, j := work[k].i, work[k].j
		plans[k] = e.planCell(idxs[order[i]], idxs[order[j]], metric, policy)
	})
	if ctxErr != nil {
		sp.End()
		return nil, ctxErr
	}

	// Phase B: exact refinement over the flattened (cell, pair) tasks —
	// the DP work itself is what load-balances, so one cell full of
	// borderline pairs cannot serialise the sweep.
	var exact []*pairRoute
	for _, pl := range plans {
		for i := range pl.routes {
			if pl.routes[i].tier == ted.TierExact {
				exact = append(exact, &pl.routes[i])
			}
		}
	}
	ctxErr = e.runParallel(ctx, len(exact), sp, "engine.tier_refine", func(k int) {
		r := exact[k]
		r.est = float64(e.cache.Distance(r.ta, r.tb))
	})
	if ctxErr != nil {
		sp.End()
		return nil, ctxErr
	}

	// Phase C: serial per-cell reduction in divergeTrees' order.
	for k, pl := range plans {
		i, j := work[k].i, work[k].j
		d, tc := pl.reduce()
		tm.Values[i][j] = d.Norm
		tm.Values[j][i] = safeDiv(d.Raw, Weight(idxs[order[i]], metric))
		tm.Cells[i][j], tm.Cells[j][i] = tc, tc
		tm.Stats.add(tc)
		e.countTier(tc)
		e.cellStore(keys[k], cellVal{norm: tm.Values[i][j], rev: tm.Values[j][i], tc: tc})
	}
	sp.End()
	return tm, nil
}
