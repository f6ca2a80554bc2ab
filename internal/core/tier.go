package core

import (
	"context"
	"fmt"

	"silvervale/internal/ted"
)

// Tiered matrix sweeps (DESIGN.md §10). MatrixTiered computes the same
// pairwise divergence matrix as Matrix, but each cell routes its matched
// tree pairs through the cache's tier policy first: an approximate pass
// (LSH signatures, then pq-gram distance) classifies every pair, and only
// the pairs routed TierExact run exact Zhang–Shasha. Routing rides the
// one memoised sweep (Engine.matrixMemo): each dirty cell is one worker-
// pool task that routes, refines and accumulates its pairs in
// divergeTrees' order, so the output is bit-identical across runs and
// worker counts.
//
// Below ted.ScreeningBudget the policy is disabled and the sweep is the
// exact Matrix path — byte-identical by construction, pinned by the
// equivalence gate in tier_test.go.

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
// otherwise every cell routes its pairs under the policy, and every
// cell's |tiered − exact| error is bounded by the policy's budget (the
// exact-vs-tiered harness pins this on the seed corpora).
func (e *Engine) MatrixTiered(idxs map[string]*Index, order []string, metric string, policy ted.TierPolicy) (*TieredMatrix, error) {
	return e.MatrixTieredCtx(context.Background(), idxs, order, metric, policy)
}

// MatrixTieredCtx is MatrixTiered under a cancellation context. The sweep
// checks ctx at every task grant; a canceled sweep returns ctx.Err() and
// publishes nothing to the matrix-cell memo or the tier counts. Cells
// computed on the exact path report every matched pair exact.
func (e *Engine) MatrixTieredCtx(ctx context.Context, idxs map[string]*Index, order []string, metric string, policy ted.TierPolicy) (*TieredMatrix, error) {
	cells := make([][]TierCell, len(order))
	for i := range cells {
		cells[i] = make([]TierCell, len(order))
	}
	vals, err := e.matrixMemo(ctx, idxs, order, metric, policy, cells)
	if err != nil {
		return nil, err
	}
	tm := &TieredMatrix{Values: vals, Cells: cells, Policy: policy}
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			tm.Stats.add(cells[i][j])
			e.countTier(cells[i][j])
		}
	}
	return tm, nil
}
