// Package ted implements Tree Edit Distance (TED).
//
// TED is defined as the minimal total cost of deleting, inserting, and
// relabelling tree nodes required to transform one ordered tree into another
// (Section III.B of the paper; Bille's survey; Zhang & Shasha). The exact
// algorithm implemented here is Zhang–Shasha with keyroots, which runs in
// O(n1*n2*min(d1,l1)*min(d2,l2)) time and O(n1*n2) space. The paper uses
// APTED, which picks a decomposition path per subproblem. The cached path
// takes a two-level step in that direction (DESIGN.md §13): the root's
// keyroot row stays left-path, so its forest-prefix checkpoints survive
// edits, while each root child's sub-DP runs on the mirrored trees
// (right-path decomposition) whenever the tree shapes predict fewer cells.
// The package-level functions keep the monolithic left-path DP as the
// reference. The package also provides a pq-gram approximation (see
// approx.go) as the memory-friendly mode the paper lists as future work.
//
// The hot path is organised around reuse (DESIGN.md §6): labels intern into
// one process-wide table (flatten.go), per-call buffers — flattened trees,
// DP matrices, gate tables — come from a sync.Pool sized by high-water mark
// (pool.go), cheap exact bound gates run before the quadratic DP
// (bounds.go), and Cache memoises the flattened form of each tree by
// content fingerprint so a matrix sweep flattens every tree once.
//
// By default every operation has unit cost, matching the evaluation setup
// ("we use the unit weight of one for all nodes and operations"). Different
// weights can be supplied via Costs; e.g. adding new code may have a
// different productivity impact than removing existing code.
package ted

import (
	"sort"

	"silvervale/internal/tree"
)

// Costs configures per-operation weights.
type Costs struct {
	Insert int
	Delete int
	Rename int // cost of relabelling when labels differ
}

// UnitCosts is the configuration used throughout the paper's evaluation.
func UnitCosts() Costs { return Costs{Insert: 1, Delete: 1, Rename: 1} }

// Distance computes the exact tree edit distance between two trees with unit
// costs. Nil trees are treated as empty: the distance from nil to T is |T|.
func Distance(t1, t2 *tree.Node) int {
	return DistanceWithCosts(t1, t2, UnitCosts())
}

// DistanceWithCosts computes the exact tree edit distance under the given
// cost model.
func DistanceWithCosts(t1, t2 *tree.Node, c Costs) int {
	if t1 == nil && t2 == nil {
		return 0
	}
	if t1 == nil {
		return t2.Size() * c.Insert
	}
	if t2 == nil {
		return t1.Size() * c.Delete
	}
	sc := getScratch()
	sc.prepFlat(&sc.fa, t1.Size())
	fillFlat(&sc.fa, t1, sc.seen)
	sc.prepFlat(&sc.fb, t2.Size())
	fillFlat(&sc.fb, t2, sc.seen)
	d, pruned := boundGate(&sc.fa, &sc.fb, c, sc)
	if !pruned {
		d = zsDistance(&sc.fa, &sc.fb, c, sc)
	}
	putScratch(sc)
	return d
}

// zsDistance runs the Zhang–Shasha keyroot recurrence over two flattened
// trees using sc's pooled DP matrices. This monolithic form is the
// reference the memoised decomposition below must match bit for bit.
func zsDistance(a, b *flat, c Costs, sc *dpScratch) int {
	n1 := len(a.labels)
	n2 := len(b.labels)
	td, fd, boff := sc.dpTables(n1, n2)
	for _, i := range a.kr {
		for _, j := range b.kr {
			treedist(a, b, i, j, c, td, fd, boff)
		}
	}
	return int(td[n1-1][n2-1])
}

// zsDistanceMemo is zsDistance decomposed into its keyroot subproblems,
// each served from the cache's content-addressed subtree-block memo when
// possible (DESIGN.md §13). Soundness rests on two properties of the
// Zhang–Shasha recurrence:
//
//   - treedist(i, j) writes exactly the td cells spine(i) x spine(j) —
//     the subtree pairs whose keyroot pair is (i, j) — and those values
//     are the exact subtree-pair distances, a pure function of the two
//     subtrees' content plus the cost model. Nothing else about the
//     enclosing trees leaks in.
//   - its td reads are confined to cells owned by strictly earlier pairs
//     in the ascending keyroot enumeration.
//
// So a block keyed by (subtree fingerprint pair, costs) can be restored
// into td in enumeration order in place of re-running the DP, and every
// later read — including the final root pair — sees bit-identical values.
// This is why the memo is exact where a subtree-alignment DP is only an
// upper bound: it replays the monolithic DP's own subproblem results
// rather than re-deriving the distance from per-subtree distances, which
// cannot express forest mappings that split a subtree (§12).
//
// Two refinements keep the warm path off the recompute floor (§13):
//
//   - Lazy materialisation. A hit block's cells are only written into td
//     when a DP run may actually read them. treedist(i, j) reads td cells
//     confined to the post-order rectangle subtree(i) x subtree(j), and
//     every cell in it is owned by a keyroot pair inside the same
//     rectangle, so restoring the pending blocks of that keyroot sub-grid
//     just before the run covers every read. Pairs below the size
//     threshold need no materialisation at all: their read set is owned
//     by strictly smaller pairs, which are below the threshold too and
//     therefore always freshly computed.
//   - Forest-prefix checkpoint resume. The root keyroot's row is the one
//     row a root-changing edit always invalidates, and it dominates the
//     recompute floor (its DP spans the whole tree). During a full
//     root-row DP the fd row completed at each root-child boundary is a
//     pure function of (cut forest C1..Ck, b subtree, costs), so it is
//     captured under that content address; a later root-row miss resumes
//     from the deepest boundary whose prefix fold still matches, paying
//     only the rows after the edit. Resume is all-or-nothing across the
//     root row: a resumed pair leaves its prefix-spine td cells
//     unmaterialised, which is sound only because no below-threshold or
//     fully-recomputed pair remains in the row to read them (non-root
//     keyroots never own root-spine cells — the root is the only keyroot
//     of its lmld class).
//
// Map traffic is batched: one read-lock probes the whole keyroot grid
// slot by slot plus the root-row checkpoints (phase 1), the
// DP/materialise pass runs lock-free (phase 2), and one write lock
// publishes fresh blocks and checkpoint rows keep-first (phase 3) — so
// the warm path pays two lock acquisitions per tree pair, not two per
// keyroot pair.
func (c *Cache) zsDistanceMemo(a, b *flat, costs Costs, sc *dpScratch, o *cacheObs, ta, tb *tree.Node) int {
	n1 := len(a.labels)
	n2 := len(b.labels)
	td, fd, boff := sc.dpTables(n1, n2)
	k1 := len(a.kr)
	k2 := len(b.kr)
	blocks, done := sc.blockRefs(k1 * k2)
	minCells := c.subMin
	lastKi := k1 - 1
	var computed int64 // forest-distance cells this run computes

	// A nil ta marks a mirrored root-child sub-DP (mirroredSubDP): it runs
	// the plain keyroot loop, never resumes (its caller copies the whole
	// td rectangle out, so no prefix may stay unproduced) and materialises
	// everything at the end.
	sub := ta == nil
	// ckEligible requires n1 >= minCells. Below it the root row is cheap
	// enough that checkpoint bookkeeping cannot pay for itself; at or
	// above it every root-row pair has cells = n1*m2 >= n1 >= minCells,
	// so the all-or-nothing resume rule never has to reason about
	// below-threshold pairs. The path strategy relies on the same guard:
	// the root pair is never deferred, so mirrored rows are only ever
	// read by the root row.
	ckEligible := !sub && len(a.ckptRow) > 0 && n1 >= minCells
	var resume []ckptRef
	if ckEligible {
		resume = sc.ckptRefs(k2)
	}
	// skip marks the a keyroot rows inside mirrored root children: the
	// grid never probes, computes or materialises them; their td cells come
	// from the children's mirrored sub-DPs instead (nil: plain loop).
	var mirrored, skip []bool
	if !sub && n1 >= minCells {
		mirrored, skip = c.planPaths(a, b, sc)
	}

	var hits, misses, ckHits, ckMisses int64
	c.subMu.RLock()
	for ki, i := range a.kr {
		if skip != nil && skip[ki] {
			continue
		}
		m1 := i - int(a.lmld[i]) + 1
		row := blocks[ki*k2 : (ki+1)*k2]
		for kj, j := range b.kr {
			if m1*(j-int(b.lmld[j])+1) < minCells {
				row[kj] = nil // scratch slot may hold a stale pointer
				continue
			}
			bl := c.subs[subKey{a: a.krFP[ki], b: b.krFP[kj], costs: costs}]
			row[kj] = bl
			if bl != nil {
				hits++
			}
		}
	}
	resumable := ckEligible
	minR0 := n1
	if ckEligible {
		row := blocks[lastKi*k2:]
		for kj, j := range b.kr {
			resume[kj] = ckptRef{}
			if row[kj] != nil {
				continue
			}
			m2 := j - int(b.lmld[j]) + 1
			found := false
			for t := len(a.ckptRow) - 1; t >= 0; t-- {
				vals, ok := c.ckpts[ckptKey{prefix: a.ckptFP[t], b: b.krFP[kj], costs: costs}]
				if ok && len(vals) == m2+1 {
					resume[kj] = ckptRef{row: a.ckptRow[t], vals: vals}
					found = true
					if r := int(a.ckptRow[t]); r < minR0 {
						minR0 = r
					}
					break
				}
			}
			if !found {
				resumable = false
				ckMisses++
			}
		}
	}
	c.subMu.RUnlock()

	// materialise produces every pending td cell inside the post-order
	// rectangle [aLo..aHi] x [bLo..bHi] — the cells the next DP run may
	// read: hit blocks are restored, and below-threshold pairs (deferred
	// by the main loop — most of them are never read on a warm sweep) are
	// computed now, in ascending keyroot-pair order so their own reads are
	// satisfied first. Keyroot subtrees never straddle the bounds used
	// here (subtree rectangles and root-forest suffixes are both unions of
	// whole keyroot subtrees), so the sorted keyroot arrays give the
	// covered pairs as contiguous index ranges, and a covered pair's own
	// read rectangle is nested inside the requested one — no recursion.
	// Memoisable misses inside the rectangle need no case: rectangle
	// containment means they enumerate before the requesting pair, so the
	// main loop already computed them (their done mark distinguishes them
	// from deferred below-threshold slots); the requesting pair itself is
	// skipped by the threshold test.
	materialise := func(aLo, aHi, bLo, bHi int) {
		kiLo := sort.SearchInts(a.kr, aLo)
		kjLo := sort.SearchInts(b.kr, bLo)
		for ki := kiLo; ki < k1 && a.kr[ki] <= aHi; ki++ {
			if skip != nil && skip[ki] {
				continue
			}
			i := a.kr[ki]
			m1 := i - int(a.lmld[i]) + 1
			row := blocks[ki*k2 : (ki+1)*k2]
			rdone := done[ki*k2 : (ki+1)*k2]
			var rows []int32
			for kj := kjLo; kj < k2 && b.kr[kj] <= bHi; kj++ {
				if rdone[kj] {
					continue
				}
				if bl := row[kj]; bl != nil {
					rdone[kj] = true
					if rows == nil {
						rows = a.spine[a.spineOff[ki]:a.spineOff[ki+1]]
					}
					restoreBlock(td, rows, b.spine[b.spineOff[kj]:b.spineOff[kj+1]], bl.vals)
				} else if j := b.kr[kj]; m1*(j-int(b.lmld[j])+1) < minCells {
					rdone[kj] = true
					treedist(a, b, i, j, costs, td, fd, boff)
					computed += int64(m1 * (j - int(b.lmld[j]) + 1))
				}
			}
		}
	}

	// runKids produces the td rectangles Cm × b of the mirrored root
	// children whose first post-order index is at least lo — what the root
	// row reads of them, whole when it runs from row 0 and past the
	// shallowest resume boundary when resumed — once, just before the
	// first root-row DP. A root row served entirely by blocks runs none.
	kidsRun := mirrored == nil
	runKids := func(lo int) {
		if kidsRun {
			return
		}
		kidsRun = true
		var nLeft, nMirrored int64
		for m := range a.kids {
			k := &a.kids[m]
			switch {
			case int(k.start) < lo:
			case mirrored[m]:
				nMirrored++
				c.mirroredSubDP(ta.Children[m], k, a, tb, b, costs, td, o)
			default:
				nLeft++
			}
		}
		if o != nil {
			o.subdpLeft.Add(nLeft)
			o.subdpMirror.Add(nMirrored)
		}
	}

	var fresh []subEntry
	var freshCk []ckptEntry
	suffixDone := false
	for ki, i := range a.kr {
		if skip != nil && skip[ki] {
			continue
		}
		li := int(a.lmld[i])
		m1 := i - li + 1
		rows := a.spine[a.spineOff[ki]:a.spineOff[ki+1]]
		row := blocks[ki*k2 : (ki+1)*k2]
		rdone := done[ki*k2 : (ki+1)*k2]
		isRoot := ki == lastKi
		for kj, j := range b.kr {
			if row[kj] != nil {
				continue // hit: materialised lazily if a later DP reads it
			}
			lj := int(b.lmld[j])
			cells := m1 * (j - lj + 1)
			if cells < minCells {
				continue // deferred: materialised only if a later DP reads it
			}
			if isRoot && resumable {
				// Block miss served by a checkpoint: recompute only the
				// rows after the deepest matching prefix boundary. No
				// block is harvested (the prefix-spine cells were never
				// written); boundaries passed on the way down are.
				misses++
				ckHits++
				r0 := int(resume[kj].row)
				if !suffixDone {
					// One scan covers every resumed pair in the row: their
					// read rectangles all sit inside [shallowest resume
					// boundary .. root] x the whole b tree.
					runKids(minR0)
					materialise(li+minR0, i, 0, n2-1)
					suffixDone = true
				}
				treedistFrom(a, b, i, j, costs, td, fd, boff, r0, resume[kj].vals)
				computed += int64((m1 - r0) * (j - lj + 1))
				rdone[kj] = true
				freshCk = captureCkpts(freshCk, a, b.krFP[kj], j, lj, costs, fd, r0)
				continue
			}
			misses++
			if isRoot {
				runKids(0)
			}
			materialise(li, i, lj, j)
			treedist(a, b, i, j, costs, td, fd, boff)
			computed += int64(cells)
			rdone[kj] = true
			cols := b.spine[b.spineOff[kj]:b.spineOff[kj+1]]
			key := subKey{a: a.krFP[ki], b: b.krFP[kj], costs: costs}
			fresh = append(fresh, subEntry{key: key, block: &subBlock{
				l1:   int32(len(rows)),
				l2:   int32(len(cols)),
				vals: harvestBlock(td, rows, cols),
			}})
			if isRoot && ckEligible {
				freshCk = captureCkpts(freshCk, a, b.krFP[kj], j, lj, costs, fd, 0)
			}
		}
	}

	if sub {
		materialise(0, n1-1, 0, n2-1)
	}
	var d int
	if bl := blocks[k1*k2-1]; bl != nil {
		// Root-pair hit that nothing recomputed ever read: the distance is
		// the block's last cell, no materialisation needed.
		d = int(bl.vals[len(bl.vals)-1])
	} else {
		if !done[k1*k2-1] {
			// The root pair itself was below the memo threshold — then so is
			// every pair (nothing has more cells), and the whole grid was
			// deferred. Produce it now; the ascending scan ends with the
			// root-pair DP.
			materialise(0, n1-1, 0, n2-1)
		}
		d = int(td[n1-1][n2-1])
	}

	if len(fresh) > 0 || len(freshCk) > 0 {
		c.publishSubBlocks(fresh, freshCk)
	}
	if o != nil {
		o.dpCells.Add(computed)
	}
	k := c.counts
	k.subHits.Add(hits)
	k.subMisses.Add(misses)
	k.ckptHits.Add(ckHits)
	k.ckptMisses.Add(ckMisses)
	return d
}

// planPaths chooses, from tree shapes alone, the orientation of each root
// child's sub-DP for the pair (a, b) (DESIGN.md §13). In the left-path
// grid child Cm's keyroot rows cost W_L(Cm)·W_L(b) cells; run on the
// mirrored pair they cost W_R(Cm)·W_R(b) plus the |Cm|·n2 copy back. A
// child runs mirrored when that saves at least pathMin cells. The marks
// are nil when every child stays left — the plain keyroot loop.
func (c *Cache) planPaths(a, b *flat, sc *dpScratch) (mirrored, skip []bool) {
	if len(a.kids) == 0 {
		return nil, nil
	}
	n2 := int64(len(b.labels))
	mirrored, skip = sc.pathMarks(len(a.kids), len(a.kr))
	use := false
	for m := range a.kids {
		k := &a.kids[m]
		if k.wL*b.wL-(k.wR*b.wR+int64(k.size)*n2) < c.pathMin {
			continue
		}
		use = true
		mirrored[m] = true
		for ki := k.kiLo; ki < k.kiHi; ki++ {
			skip[ki] = true
		}
	}
	if !use {
		return nil, nil
	}
	return mirrored, skip
}

// mirroredSubDP produces root child k's td rectangle Cm × b. It runs the
// memoised keyroot DP on the mirrored pair (mirror Cm, mirror b) in a
// second scratch, then copies the whole rectangle into td with rows and
// columns mapped by post_mirror(x) = n−1−pre(x). Every td cell is a
// subtree-pair distance and TED is invariant under mirroring both trees,
// so the copied cells equal those the left-path rows would have written.
func (c *Cache) mirroredSubDP(tk *tree.Node, k *kidShape, a *flat, tb *tree.Node, b *flat, costs Costs, td [][]int32, o *cacheObs) {
	ma := c.mirrorFlat(tk, k.fp)
	mb := c.mirrorFlat(tb, b.krFP[len(b.kr)-1])
	sc := getScratch()
	c.zsDistanceMemo(ma, mb, costs, sc, o, nil, nil)
	restoreBlock(td, a.mir[k.off:k.off+k.size], b.mir, sc.td[:len(ma.labels)*len(mb.labels)])
	putScratch(sc)
}

// captureCkpts copies the fd rows completed at root-child boundaries
// deeper than r0 out of the pooled DP table, keyed by (prefix fold, b
// subtree, costs) for publication. Boundaries at or above r0 were either
// restored from the memo (r0 itself) or never computed this run.
func captureCkpts(dst []ckptEntry, a *flat, bFP tree.Fingerprint, j, lj int, costs Costs, fd [][]int32, r0 int) []ckptEntry {
	m2 := j - lj + 1
	for t, r := range a.ckptRow {
		if int(r) <= r0 {
			continue
		}
		vals := append([]int32(nil), fd[r][:m2+1]...)
		dst = append(dst, ckptEntry{
			key:  ckptKey{prefix: a.ckptFP[t], b: bFP, costs: costs},
			vals: vals,
		})
	}
	return dst
}

// restoreBlock writes a memoised block's values into the td cells the
// originating treedist call wrote: the row-major spine(i) x spine(j) grid.
func restoreBlock(td [][]int32, rows, cols []int32, vals []int32) {
	for r, x := range rows {
		tdRow := td[x]
		v := vals[r*len(cols):]
		for ci, y := range cols {
			tdRow[y] = v[ci]
		}
	}
}

// harvestBlock copies the td cells a treedist call just wrote into a
// fresh backing array, the immutable payload of a new block.
func harvestBlock(td [][]int32, rows, cols []int32) []int32 {
	vals := make([]int32, len(rows)*len(cols))
	for r, x := range rows {
		tdRow := td[x]
		v := vals[r*len(cols):]
		for ci, y := range cols {
			v[ci] = tdRow[y]
		}
	}
	return vals
}

// treedist fills td for the subtree pair rooted at post-order indices (i, j)
// following the classic Zhang–Shasha forest recurrence. The inner loop is
// restructured for the profile-measured hot path: the b-side lmld offsets
// are precomputed once per keyroot pair into boff (so the per-cell whole-
// forest test is a single compare against 0), rows where the a-forest is a
// whole subtree are split from the common case (removing the branch from
// the majority of cells), and the west/northwest neighbours are carried in
// registers across the row instead of re-read from the matrix.
func treedist(a, b *flat, i, j int, c Costs, td, fd [][]int32, boff []int32) {
	treedistFrom(a, b, i, j, c, td, fd, boff, 0, nil)
}

// treedistFrom is treedist with checkpoint resume (§13): when r0 > 0,
// the memoised fd row `resume` (the row completed at a-forest prefix
// [0..r0-1], m2+1 cells) is installed as the predecessor row and the row
// loop starts at prefix length r0 instead of 0. Only the root keyroot is
// ever resumed, so li == 0 and fd row indices coincide with prefix
// lengths. The skipped rows' td cells are NOT produced; the caller's
// all-or-nothing rule guarantees nothing later reads them, and the rows
// that do run read only fd rows >= r0 plus fd[0] (a suffix node's lmld
// is either >= r0, or it is the root itself, whose lmld row is fd[0] —
// written unconditionally below).
func treedistFrom(a, b *flat, i, j int, c Costs, td, fd [][]int32, boff []int32, r0 int, resume []int32) {
	li := int(a.lmld[i])
	lj := int(b.lmld[j])
	m1 := i - li + 1 // a-forest size (DP rows)
	m2 := j - lj + 1 // b-forest size (DP cols)
	ins := int32(c.Insert)
	del := int32(c.Delete)
	ren := int32(c.Rename)

	// Column 0 is only read for rows >= r0 (the resumed row itself arrives
	// via the checkpoint copy, whose [0] cell is the same pure function),
	// so a resumed run skips the prefix writes.
	fd[0][0] = 0
	col := int32(r0) * del
	for r := r0 + 1; r <= m1; r++ {
		col += del
		fd[r][0] = col
	}
	row0 := fd[0][:m2+1]
	acc := int32(0)
	for cj := 1; cj <= m2; cj++ {
		acc += ins
		row0[cj] = acc
	}

	// boff[cj] is bLmld[lj+cj]-lj: 0 exactly when the b-forest ending at
	// that node is a whole subtree, and otherwise the fd column where the
	// left part of the split b-forest ends.
	bl := b.lmld[lj : j+1]
	bo := boff[:m2]
	for cj := range bo {
		bo[cj] = bl[cj] - int32(lj)
	}
	blab := b.labels[lj : j+1]

	if r0 > 0 {
		copy(fd[r0][:m2+1], resume)
	}

	for di := li + r0; di <= i; di++ {
		r := di - li
		prev := fd[r][:m2+1]
		cur := fd[r+1][:m2+1]
		tdRow := td[di][lj : j+1]
		fdA := fd[int(a.lmld[di])-li]
		left := cur[0]
		if int(a.lmld[di]) == li {
			// The a-forest is a whole subtree: cells where the b-forest is
			// too (bo == 0) both close a treedist entry and use the rename
			// recurrence.
			la := a.labels[di]
			diag := prev[0]
			for cj := 0; cj < m2; cj++ {
				up := prev[cj+1]
				var d int32
				if bo[cj] == 0 {
					rc := int32(0)
					if la != blab[cj] {
						rc = ren
					}
					d = min3(up+del, left+ins, diag+rc)
					tdRow[cj] = d
				} else {
					d = min3(up+del, left+ins, fdA[bo[cj]]+tdRow[cj])
				}
				cur[cj+1] = d
				left = d
				diag = up
			}
		} else {
			for cj := 0; cj < m2; cj++ {
				d := min3(prev[cj+1]+del, left+ins, fdA[bo[cj]]+tdRow[cj])
				cur[cj+1] = d
				left = d
			}
		}
	}
}

func min3(a, b, c int32) int32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// MaxDistance returns dmax for a tree pair (Eq. 7): the size of the
// right-hand tree, i.e. the distance at which the second codebase is
// considered entirely different from the first. MaxDistance of a nil tree
// is 0.
func MaxDistance(t2 *tree.Node) int { return t2.Size() }

// Normalized returns Distance(t1, t2) normalised into [0, ~]: distance
// divided by dmax (Eq. 7). A value of 0 means identical; values can exceed 1
// when |t1| > |t2| because dmax is not a strict upper bound ("this is
// different from a divergence upper-bound, which we do not define").
func Normalized(t1, t2 *tree.Node) float64 {
	dm := MaxDistance(t2)
	if dm == 0 {
		if t1.Size() == 0 {
			return 0
		}
		return 1
	}
	return float64(Distance(t1, t2)) / float64(dm)
}
