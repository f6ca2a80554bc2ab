package main

import (
	"silvervale/internal/core"
	"silvervale/internal/tree"
)

// Workload characterisation for the path-strategy question: for every
// distinct non-identical tree pair a workload sends to the TED layer, the
// number of Zhang–Shasha subproblems under left-path and under right-path
// decomposition, computed from the tree shapes alone (no DP). With
// keyroots K(T) the DP visits Σ_{k1∈K(T1)} Σ_{k2∈K(T2)} |T1(k1)|·|T2(k2)|
// cells, which factors into W(T1)·W(T2) where W(T) = Σ_{k∈K(T)} |T(k)|.
// Left-path keyroots are the root plus every node with a left sibling;
// right-path keyroots the root plus every node with a right sibling.

type shapeTally struct {
	weights  map[tree.Fingerprint][2]float64
	seen     map[[2]tree.Fingerprint]bool
	maxNodes int
	left     float64
	right    float64
}

func newShapeTally() *shapeTally {
	return &shapeTally{weights: map[tree.Fingerprint][2]float64{}, seen: map[[2]tree.Fingerprint]bool{}}
}

// keyrootWeights returns W(T) under left- and right-path decomposition.
func keyrootWeights(n *tree.Node) (left, right float64) {
	var walk func(n *tree.Node, leftKR, rightKR bool) int
	walk = func(n *tree.Node, leftKR, rightKR bool) int {
		size := 1
		for i, c := range n.Children {
			size += walk(c, i > 0, i < len(n.Children)-1)
		}
		if leftKR {
			left += float64(size)
		}
		if rightKR {
			right += float64(size)
		}
		return size
	}
	walk(n, true, true)
	return left, right
}

func (s *shapeTally) weightsOf(u *core.UnitIndex, metric string) (tree.Fingerprint, [2]float64) {
	fp := u.TreeFingerprint(metric)
	w, ok := s.weights[fp]
	if !ok {
		l, r := keyrootWeights(u.Trees[metric])
		w = [2]float64{l, r}
		s.weights[fp] = w
	}
	return fp, w
}

// addPair tallies the role-matched unit pairs of two indexes, once per
// distinct unordered tree pair; identical trees never reach the DP.
func (s *shapeTally) addPair(a, b *core.Index, metric string) {
	byRole := map[string]*core.UnitIndex{}
	for i := range b.Units {
		byRole[b.Units[i].Role] = &b.Units[i]
	}
	for i := range a.Units {
		ua := &a.Units[i]
		ub, ok := byRole[ua.Role]
		if !ok || ua.Trees[metric] == nil || ub.Trees[metric] == nil {
			continue
		}
		fa, wa := s.weightsOf(ua, metric)
		fb, wb := s.weightsOf(ub, metric)
		if fa == fb {
			continue
		}
		key := [2]tree.Fingerprint{fa, fb}
		if fb.Less(fa) {
			key = [2]tree.Fingerprint{fb, fa}
		}
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		s.maxNodes = max(s.maxNodes, int(fa.Size)+int(fb.Size))
		s.left += wa[0] * wb[0]
		s.right += wa[1] * wb[1]
	}
}

// addMatrix tallies every pair of a matrix sweep.
func (s *shapeTally) addMatrix(idxs map[string]*core.Index, order []string, metric string) {
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			s.addPair(idxs[order[i]], idxs[order[j]], metric)
		}
	}
}

func (s *shapeTally) fill(l map[string]float64) {
	l["ted.pair_nodes_max"] = float64(s.maxNodes)
	l["ted.pred_left_subproblems"] = s.left
	l["ted.pred_right_subproblems"] = s.right
}
