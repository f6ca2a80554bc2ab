package core

// The path-strategy cost floor (DESIGN.md §13, "Cold floor"). Before
// building a fuller decomposition strategy for the cold DP, this test
// prices the candidates from tree shapes alone, with no DP run, over the
// distinct tree pairs of a cold tsem matrix sweep. Every strategy is
// priced in the same no-memo cell model: a DP over an m1-node row forest
// and an m2-node column forest costs m1·m2 cells.
//
//   - left grid: the plain Zhang–Shasha keyroot loop, W_L(a)·W_L(b).
//   - plan: what the memoised DP runs today (planPaths): the left-path
//     root row, then per root child either its left keyroot rows or a
//     mirrored sub-DP plus the copy back.
//   - recursive plan: the same rule applied again inside every mirrored
//     sub-DP, which today runs the plain keyroot loop.
//   - RTED optimum: the strategy-cost recurrence of Pawlik & Augsten
//     (RTED, VLDB 2011, Algorithm 2), minimising over left and right
//     paths in both trees, and then also over heavy paths.
//
// The kill criterion: a fuller strategy is worth building only if its
// optimum is at most 0.6x the plan. The test asserts it is not, which is
// why the memoised DP keeps its one-level plan.

import (
	"fmt"
	"testing"

	"silvervale/internal/tree"
)

// The memoised DP's thresholds (ted's subDefaultMinCells and
// pathDefaultMinSaving): a pair with fewer than strategySubMin row nodes
// runs the plain loop, and a child runs mirrored only if that saves at
// least strategyPathMin cells.
const (
	strategySubMin  = 64
	strategyPathMin = 1 << 12
)

// strategyShape holds, per node in post-order and for the subtree rooted
// there as a standalone tree: its size, its left- and right-path keyroot
// weights (Σ of keyroot subtree sizes), and |A|, the number of subforests
// of its full decomposition. first, last and heavy mark a node as its
// parent's leftmost, rightmost or first largest child.
type strategyShape struct {
	parent             []int32
	kids               [][]int32
	size, wL, wR, all  []int64
	first, last, heavy []bool
}

func newStrategyShape(t *tree.Node) *strategyShape {
	n := t.Size()
	s := &strategyShape{
		parent: make([]int32, n), kids: make([][]int32, n),
		size: make([]int64, n), wL: make([]int64, n), wR: make([]int64, n), all: make([]int64, n),
		first: make([]bool, n), last: make([]bool, n), heavy: make([]bool, n),
	}
	next := int32(0)
	sumSizes := make([]int64, n) // Σ of subtree sizes inside each subtree
	var walk func(x *tree.Node) int32
	walk = func(x *tree.Node) int32 {
		kids := make([]int32, len(x.Children))
		for i, c := range x.Children {
			kids[i] = walk(c)
		}
		v := next
		next++
		s.kids[v] = kids
		s.size[v] = 1
		heavy := -1
		for i, c := range kids {
			s.parent[c] = v
			s.size[v] += s.size[c]
			sumSizes[v] += sumSizes[c]
			s.wL[v] += s.wL[c]
			s.wR[v] += s.wR[c]
			if heavy < 0 || s.size[c] > s.size[kids[heavy]] {
				heavy = i
			}
		}
		s.wL[v] += s.size[v]
		s.wR[v] += s.size[v]
		if k := len(kids); k > 0 {
			// The leftmost (rightmost) child shares its parent's left
			// (right) path, so it is no keyroot of that orientation.
			s.wL[v] -= s.size[kids[0]]
			s.wR[v] -= s.size[kids[k-1]]
			s.first[kids[0]] = true
			s.last[kids[k-1]] = true
			s.heavy[kids[heavy]] = true
		}
		sumSizes[v] += s.size[v]
		s.all[v] = s.size[v]*(s.size[v]+3)/2 - sumSizes[v]
		return v
	}
	root := walk(t)
	s.parent[root] = -1
	return s
}

func (s *strategyShape) root() int { return len(s.size) - 1 }

// planCells prices the memoised DP's plan for row subtree x against
// the whole column tree b, in left orientation or (right) on the
// mirrored pair. A root child goes mirrored when the one-level estimate
// saves at least strategyPathMin cells; with recursive set, the mirrored
// sub-DP plans its own children the same way instead of running the
// plain loop.
func planCells(a *strategyShape, x int, right bool, b *strategyShape, recursive bool) int64 {
	wa, wb, fa, fb := a.wL, b.wL, a.wR, b.wR
	if right {
		wa, wb, fa, fb = a.wR, b.wR, a.wL, b.wL
	}
	rb := b.root()
	n2 := int64(len(b.size))
	if a.size[x] < strategySubMin {
		return wa[x] * wb[rb]
	}
	cells := a.size[x] * wb[rb] // the root row
	kids := a.kids[x]
	for i, c := range kids {
		kw := wa[c]
		if (!right && i == 0) || (right && i == len(kids)-1) {
			kw -= a.size[c] // the first child's spine belongs to the root row
		}
		stay := kw * wb[rb]
		copyBack := a.size[c] * n2
		flip := fa[c]*fb[rb] + copyBack
		switch {
		case stay-flip < strategyPathMin:
			cells += stay
		case recursive:
			cells += planCells(a, int(c), !right, b, true) + copyBack
		default:
			cells += flip
		}
	}
	return cells
}

// rtedCells is the optimal strategy cost of RTED's recurrence for the
// pair (f, g), over left and right paths in both trees and, with heavy
// set, heavy paths too. Path γ in F_v costs |F_v| times the column
// subforests its single-path function visits (W_L or W_R of G_w, or
// |A(G_w)| for a heavy path), plus the optimal costs of the subtrees
// hanging off γ; symmetrically for a path in G_w. The per-v accumulator
// rows live only while v has a processed child and is itself unprocessed
// (at most the tree's depth of them), so memory is O(depth·|G|).
func rtedCells(f, g *strategyShape, heavy bool) int64 {
	n2 := len(g.size)
	type acc struct{ l, r, h []int64 }
	rows := make(map[int32]*acc)
	var free []*acc
	take := func() *acc {
		if k := len(free); k > 0 {
			a := free[k-1]
			free = free[:k-1]
			clear(a.l)
			clear(a.r)
			clear(a.h)
			return a
		}
		return &acc{make([]int64, n2), make([]int64, n2), make([]int64, n2)}
	}
	zero := &acc{make([]int64, n2), make([]int64, n2), make([]int64, n2)}
	lw, rw, hw := make([]int64, n2), make([]int64, n2), make([]int64, n2)
	var best int64
	for v := range f.size {
		mine, open := rows[int32(v)]
		if !open {
			mine = zero // a leaf: nothing hangs off its paths
		}
		var up *acc
		if p := f.parent[v]; p >= 0 {
			if up = rows[p]; up == nil {
				up = take()
				rows[p] = up
			}
		}
		clear(lw)
		clear(rw)
		clear(hw)
		sv, lv, rv, av := f.size[v], f.wL[v], f.wR[v], f.all[v]
		first, last, hv := f.first[v], f.last[v], f.heavy[v]
		for w := 0; w < n2; w++ {
			sw := g.size[w]
			c := min(sv*g.wL[w]+mine.l[w], sv*g.wR[w]+mine.r[w], sw*lv+lw[w], sw*rv+rw[w])
			if heavy {
				c = min(c, sv*g.all[w]+mine.h[w], sw*av+hw[w])
			}
			if up != nil {
				up.l[w] += pick(first, mine.l[w], c)
				up.r[w] += pick(last, mine.r[w], c)
				up.h[w] += pick(hv, mine.h[w], c)
			}
			if p := g.parent[w]; p >= 0 {
				lw[p] += pick(g.first[w], lw[w], c)
				rw[p] += pick(g.last[w], rw[w], c)
				hw[p] += pick(g.heavy[w], hw[w], c)
			}
			best = c
		}
		if open {
			delete(rows, int32(v))
			free = append(free, mine)
		}
	}
	return best // the (root F, root G) entry, computed last
}

func pick(onPath bool, path, off int64) int64 {
	if onPath {
		return path
	}
	return off
}

// strategyTally sums each strategy's cells over a set of pairs. The
// left/right-only optimum doubles the recurrence's cost, so it is priced
// only when withLR is set.
type strategyTally struct {
	withLR                                  bool
	pairs                                   int
	pairCells, left, plan, planRec, lr, lrh float64
}

func (s *strategyTally) add(a, b *strategyShape) {
	s.pairs++
	n1, n2 := int64(len(a.size)), int64(len(b.size))
	s.pairCells += float64(n1 * n2)
	s.left += float64(a.wL[a.root()] * b.wL[b.root()])
	s.plan += float64(planCells(a, a.root(), false, b, false))
	s.planRec += float64(planCells(a, a.root(), false, b, true))
	if s.withLR {
		s.lr += float64(rtedCells(a, b, false))
	}
	s.lrh += float64(rtedCells(a, b, true))
}

func (s *strategyTally) String() string {
	out := fmt.Sprintf("%d distinct pairs, Σn1·n2 %.4g: left grid %.4g, plan %.4g, recursive plan %.4g (%.3fx)",
		s.pairs, s.pairCells, s.left, s.plan, s.planRec, s.planRec/s.plan)
	if s.withLR {
		out += fmt.Sprintf(", RTED left/right %.4g (%.3fx)", s.lr, s.lr/s.plan)
	}
	return out + fmt.Sprintf(", RTED left/right/heavy %.4g (%.3fx)", s.lrh, s.lrh/s.plan)
}

// coldStrategyTally prices every distinct non-identical tsem tree pair a
// cold matrix sweep of app hands the DP, oriented as the first cell that
// meets it (row tree from the earlier port in model order).
func coldStrategyTally(t *testing.T, app string, withLR bool) *strategyTally {
	t.Helper()
	idxs, order := buildIndexes(t, app)
	shapes := map[tree.Fingerprint]*strategyShape{}
	shape := func(u *UnitIndex) *strategyShape {
		fp := u.TreeFingerprint(MetricTsem)
		s, ok := shapes[fp]
		if !ok {
			s = newStrategyShape(u.Trees[MetricTsem])
			shapes[fp] = s
		}
		return s
	}
	seen := map[[2]tree.Fingerprint]bool{}
	tally := &strategyTally{withLR: withLR}
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			pairs, _, _ := match(idxs[order[i]], idxs[order[j]])
			for _, p := range pairs {
				fa, fb := p[0].TreeFingerprint(MetricTsem), p[1].TreeFingerprint(MetricTsem)
				if fa == fb {
					continue
				}
				key := [2]tree.Fingerprint{fa, fb}
				if fb.Less(fa) {
					key = [2]tree.Fingerprint{fb, fa}
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				tally.add(shape(p[0]), shape(p[1]))
			}
		}
	}
	return tally
}

// TestStrategyShapeWeights pins the shape arithmetic on small trees whose
// keyroot weights and full-decomposition sizes are worked by hand, and
// bounds the recurrence by the strategies it must consider.
func TestStrategyShapeWeights(t *testing.T) {
	for _, tc := range []struct {
		sexpr       string
		wL, wR, all int64
	}{
		{sexpr: "a", wL: 1, wR: 1, all: 1},
		{sexpr: "(a b)", wL: 2, wR: 2, all: 2},
		{sexpr: "(a b c)", wL: 4, wR: 4, all: 4},
		{sexpr: "(a (b c d) e)", wL: 7, wR: 9, all: 9},
	} {
		tr, err := tree.ParseSexpr(tc.sexpr)
		if err != nil {
			t.Fatal(err)
		}
		s := newStrategyShape(tr)
		r := s.root()
		if s.wL[r] != tc.wL || s.wR[r] != tc.wR || s.all[r] != tc.all {
			t.Errorf("%s: wL %d wR %d |A| %d, want %d %d %d", tc.sexpr, s.wL[r], s.wR[r], s.all[r], tc.wL, tc.wR, tc.all)
		}
		// Both one-orientation Zhang–Shasha strategies are in the
		// recurrence's search space, and heavy paths only add choices.
		lr, lrh := rtedCells(s, s, false), rtedCells(s, s, true)
		if grid := min(s.wL[r]*s.wL[r], s.wR[r]*s.wR[r]); lr > grid || lrh > lr {
			t.Errorf("%s: RTED optimum %d (%d with heavy paths) above the best grid %d", tc.sexpr, lr, lrh, grid)
		}
	}
}

func TestPathStrategyCostFloor(t *testing.T) {
	app, withLR := "tealeaf", true
	if raceEnabled {
		// The same check on pairs small enough for -race, without the
		// left/right-only optimum: the recurrence runs ~10x slower there.
		app, withLR = "babelstream", false
	}
	s := coldStrategyTally(t, app, withLR)
	t.Logf("%s: %s", app, s)
	if s.pairs == 0 {
		t.Fatal("no distinct tree pairs")
	}
	if s.lrh > s.left || (withLR && (s.lrh > s.lr || s.lr > s.left)) {
		t.Fatalf("RTED optimum is not monotone in its path choices: %s", s)
	}
	if s.lrh <= 0.6*s.plan {
		t.Fatalf("RTED optimum %.4g is within 0.6x of the plan %.4g: the fuller strategy now pays (DESIGN.md §13)", s.lrh, s.plan)
	}
}
