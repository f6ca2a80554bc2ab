package ted

// Bound gates: cheap pre-checks that answer a distance query without
// running the O(n1·n2·...) DP. Every gate here is EXACT — it fires only
// when a lower bound provably meets an upper bound (or when the optimal
// mapping can be enumerated outright), so gated distances are
// byte-identical to the full recurrence. The equivalence property test
// compares every gate against the seed DP across cost models, and the
// sandwich property test checks lb ≤ exact ≤ ub directly.
//
// Gates implemented:
//
//   - single-node: with one tree a lone node, every mapping is valid (no
//     ancestry or ordering constraints remain), so the optimum is
//     min(delete-it + insert-all, map-it-best + insert-rest) where
//     map-it-best is 0 if the label occurs in the other tree and Rename
//     otherwise. Exact under every cost model.
//
//   - label lower bound meets the trivial upper bound: the trivial upper
//     bound is n1·Delete + n2·Insert (delete everything, insert
//     everything). labelLowerBound (below) is a valid lower bound under
//     every cost model; for label-disjoint trees under Rename ≥
//     Insert+Delete it equals the trivial bound and the gate answers
//     immediately.
//
//   - label lower bound meets the top-down upper bound (the sandwich): a
//     top-down mapping (Selkow, IPL 1977; topDown below) is a valid edit
//     mapping, so its cost bounds the distance from above. On
//     near-duplicate pairs — a tree against a copy with a function
//     appended, a statement inserted, a subtree deleted or a label
//     changed — the two bounds meet and the gate returns the DP's own
//     answer without running it. The top-down bound runs only when
//     10·lb ≤ max(n1, n2)·max(Insert, Delete): far pairs, where it could
//     not meet the lower bound anyway, pay only the O(n1+n2) label count.

// boundGate reports (distance, true) when the gates above determine the
// exact distance for the flattened pair, and (0, false) when the caller
// must run the DP. sc provides the stamp tables for the multiset count
// and the stack the top-down bound works in.
func boundGate(a, b *flat, c Costs, sc *dpScratch) (int, bool) {
	n1, n2 := len(a.labels), len(b.labels)
	if n1 == 1 {
		return singleNode(a.labels[0], b.labels, c.Delete, c.Insert, c.Rename), true
	}
	if n2 == 1 {
		return singleNode(b.labels[0], a.labels, c.Insert, c.Delete, c.Rename), true
	}
	lb := labelLowerBound(n1, n2, multisetIntersection(a.labels, b.labels, sc), c)
	if lb == n1*c.Delete+n2*c.Insert {
		return lb, true
	}
	if 10*lb <= max(n1, n2)*max(c.Insert, c.Delete) && topDownBound(a, b, c, sc) == lb {
		return lb, true
	}
	return 0, false
}

// labelLowerBound is a lower bound on the distance between trees of n1
// and n2 nodes whose label multisets intersect in i labels.
//
// Proof. An edit script is priced by its mapping M: with k = |M| pairs,
// cost(M) = Rename·r + Delete·(n1−k) + Insert·(n2−k), where r counts the
// pairs whose labels differ. A pair with equal labels uses one copy of
// that label on each side, so at most min(k, i) pairs match and
// r ≥ max(0, k−i). Hence cost(M) ≥ f(k) = Rename·max(0, k−i) +
// Delete·(n1−k) + Insert·(n2−k) for some k in [0, m], m = min(n1, n2),
// and the distance is at least the minimum of f over that range. f
// falls with slope −(Insert+Delete) up to k = i and with slope
// Rename−(Insert+Delete) beyond it, so:
//
//   - Rename < Insert+Delete: f falls all the way and the minimum is
//     f(m) = Rename·(m−i) + Delete·(n1−m) + Insert·(n2−m) (i ≤ m). For
//     unit costs this is n1+n2−m−i = max(n1, n2) − i.
//   - Rename ≥ Insert+Delete: f stops falling at k = i and the minimum is
//     f(i) = Delete·(n1−i) + Insert·(n2−i).
//
// Either form dominates the size-difference bound |n1−n2|·min(Insert,
// Delete).
func labelLowerBound(n1, n2, i int, c Costs) int {
	if c.Rename >= c.Insert+c.Delete {
		return c.Delete*(n1-i) + c.Insert*(n2-i)
	}
	m := min(n1, n2)
	return c.Rename*(m-i) + c.Delete*(n1-m) + c.Insert*(n2-m)
}

// singleNode is the exact distance between a lone node with label `lone`
// and a tree with the given labels, where `drop` is the cost of removing
// the lone node from its own tree and `fill` the cost of inserting a node
// into the other. Called with (Delete, Insert) when the left tree is the
// single node and (Insert, Delete) when the right one is.
func singleNode(lone int32, labels []int32, drop, fill, ren int) int {
	best := ren
	for _, l := range labels {
		if l == lone {
			best = 0
			break
		}
	}
	n := len(labels)
	unmapped := drop + n*fill
	mapped := (n-1)*fill + best
	return min(unmapped, mapped)
}

// multisetIntersection counts the size of the multiset intersection of
// two interned label-id lists. The pooled stamp/count tables make this
// allocation-free: ids touched by a stamp the current epoch, so no
// clearing pass is needed between calls.
func multisetIntersection(a, b []int32, sc *dpScratch) int {
	stamp, cnt, epoch := sc.stampTables()
	for _, id := range a {
		if stamp[id] != epoch {
			stamp[id] = epoch
			cnt[id] = 1
		} else {
			cnt[id]++
		}
	}
	isect := 0
	for _, id := range b {
		if stamp[id] == epoch && cnt[id] > 0 {
			cnt[id]--
			isect++
		}
	}
	return isect
}

// topDownWork is the top-down bound's work allowance per node of the
// pair, counted in compared nodes and sequence-DP cells. A near-duplicate
// pair spends about one unit per node stripping equal children; a pair
// that exhausts the allowance is not a near duplicate, and the bound
// finishes by deleting and inserting every child forest it has not yet
// aligned — still a valid mapping, so still an upper bound.
const topDownWork = 8

// topDownBound is the cost of a top-down mapping of a onto b: roots map
// to roots, and each mapped pair's child sequences are aligned by a
// sequence DP in which a child is deleted or inserted whole, or mapped
// to a child of the other side and aligned the same way below. Only
// same-label or leaf–leaf child pairs may map; every other child is
// deleted and inserted. A top-down mapping preserves ancestry and sibling
// order, so it is a valid edit mapping and its cost bounds the distance
// from above (Selkow, IPL 1977).
//
// Equal leading and trailing children map to each other at cost 0 before
// the DP runs, so on a near-duplicate pair the DP only ever sees the
// edited middle of each child list. Equality is exact: two subtrees are
// equal iff their post-order label runs and their lmld offsets relative
// to the subtree's first node agree (the lmld array determines the shape,
// since node x's subtree is exactly [lmld[x], x]), so no hash collision
// can make the bound unsound. The work runs on sc's pooled stack: no
// allocation once the stack has grown to the pair's high-water mark.
func topDownBound(a, b *flat, c Costs, sc *dpScratch) int {
	n1, n2 := len(a.labels), len(b.labels)
	td := topDown{a: a, b: b, c: c, stack: sc.tdStack[:0], work: topDownWork * (n1 + n2)}
	d := td.pair(int32(n1-1), int32(n2-1))
	sc.tdStack = td.stack[:0]
	return d
}

// topDown holds one top-down bound evaluation. stack holds, per active
// pair, both child lists and then the two DP rows of its middle; a
// nested pair pushes above them and pops on return. Since a push may
// reallocate the stack, frames are addressed by offset, never by a slice
// held across a nested call.
type topDown struct {
	a, b  *flat
	c     Costs
	stack []int32
	work  int // remaining allowance; spent on compared nodes and DP cells
}

// pair is the top-down cost of mapping a's node x onto b's node y.
func (t *topDown) pair(x, y int32) int {
	d := 0
	if t.a.labels[x] != t.b.labels[y] {
		d = t.c.Rename
	}
	base := len(t.stack)
	t.stack = appendKids(t.stack, t.a.lmld, x)
	mid := len(t.stack)
	t.stack = appendKids(t.stack, t.b.lmld, y)
	d += t.forest(base, mid, len(t.stack))
	t.stack = t.stack[:base]
	return d
}

// appendKids appends node x's children to s, last child first: the last
// child is x−1, and each child's left sibling ends just before its lmld.
func appendKids(s []int32, lmld []int32, x int32) []int32 {
	for k := x - 1; k >= lmld[x]; k = lmld[k] - 1 {
		s = append(s, k)
	}
	return s
}

// forest aligns the child lists stack[i0:j0] (of a) and stack[j0:end] (of
// b). Both lists run last child first; aligning two reversed sequences
// costs the same as aligning them forwards.
func (t *topDown) forest(i0, j0, end int) int {
	i1, j1 := j0, end
	for i0 < i1 && j0 < j1 && t.work > 0 && t.equal(t.stack[i0], t.stack[j0]) {
		i0++
		j0++
	}
	for i0 < i1 && j0 < j1 && t.work > 0 && t.equal(t.stack[i1-1], t.stack[j1-1]) {
		i1--
		j1--
	}
	p, q := i1-i0, j1-j0
	if p == 0 || q == 0 || t.work < p*q {
		return t.dropAll(i0, i1, j0, j1)
	}
	t.work -= p * q
	// Two DP rows of q+1 cells above the child lists, popped by the
	// caller's frame: after row i, prev[j] is the cost of aligning the
	// first i middle a-children with the first j middle b-children.
	prev := len(t.stack)
	for k := 0; k < 2*(q+1); k++ {
		t.stack = append(t.stack, 0)
	}
	cur := prev + q + 1
	del, ins := int32(t.c.Delete), int32(t.c.Insert)
	for j := 0; j < q; j++ {
		t.stack[prev+j+1] = t.stack[prev+j] + ins*subtreeSize(t.b, t.stack[j0+j])
	}
	for i := 0; i < p; i++ {
		x := t.stack[i0+i]
		dx := del * subtreeSize(t.a, x)
		t.stack[cur] = t.stack[prev] + dx
		for j := 0; j < q; j++ {
			y := t.stack[j0+j]
			best := min(t.stack[prev+j+1]+dx, t.stack[cur+j]+ins*subtreeSize(t.b, y))
			if t.mappable(x, y) {
				best = min(best, t.stack[prev+j]+int32(t.pair(x, y)))
			}
			t.stack[cur+j+1] = best
		}
		prev, cur = cur, prev
	}
	return int(t.stack[prev+q])
}

// dropAll is the cost of deleting a's children stack[i0:i1] and inserting
// b's children stack[j0:j1], whole subtrees each.
func (t *topDown) dropAll(i0, i1, j0, j1 int) int {
	d := 0
	for _, x := range t.stack[i0:i1] {
		d += t.c.Delete * int(subtreeSize(t.a, x))
	}
	for _, y := range t.stack[j0:j1] {
		d += t.c.Insert * int(subtreeSize(t.b, y))
	}
	return d
}

// mappable reports whether the bound may map child x onto child y: only
// same-label pairs and leaf–leaf pairs recurse.
func (t *topDown) mappable(x, y int32) bool {
	return t.a.labels[x] == t.b.labels[y] || (t.a.lmld[x] == x && t.b.lmld[y] == y)
}

// subtreeSize is the node count of f's subtree rooted at x.
func subtreeSize(f *flat, x int32) int32 { return x - f.lmld[x] + 1 }

// equal reports whether a's subtree at x and b's subtree at y are the
// same labelled ordered tree, charging each compared node to the work
// allowance.
func (t *topDown) equal(x, y int32) bool {
	lx, ly := t.a.lmld[x], t.b.lmld[y]
	if x-lx != y-ly {
		return false
	}
	for k := int32(0); k <= x-lx; k++ {
		t.work--
		if t.a.labels[lx+k] != t.b.labels[ly+k] || t.a.lmld[lx+k]-lx != t.b.lmld[ly+k]-ly {
			return false
		}
	}
	return true
}
