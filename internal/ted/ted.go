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
	td, fd := sc.dpTables(n1, n2, c)
	for _, i := range a.kr {
		for _, j := range b.kr {
			treedist(a, b, i, j, c, td, fd)
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
// So a block keyed by (subtree pair, cost model) can be restored
// into td in enumeration order in place of re-running the DP, and every
// later read — including the final root pair — sees bit-identical values.
// This is why the memo is exact where a subtree-alignment DP is only an
// upper bound: it replays the monolithic DP's own subproblem results
// rather than re-deriving the distance from per-subtree distances, which
// cannot express forest mappings that split a subtree (§12).
//
// Three refinements keep the warm path off the recompute floor (§13):
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
//   - Twin keyroot pairs. By the purity fact above, a pair whose two
//     subtrees equal those of an earlier pair (its twin pair, the first
//     keyroots with those subtrees) owns the same block. Once the twin
//     pair's cells are in td, the pair copies them instead of running its
//     DP, in materialise and in the main loop alike; a twin miss publishes
//     nothing and captures nothing, because its twin already did so under
//     the same keys. Hits, misses and checkpoint hits count as before.
//
// Map traffic is batched: one read-lock probes the whole keyroot grid
// slot by slot plus the root-row checkpoints (phase 1), the
// DP/materialise pass runs lock-free (phase 2), and one write lock
// publishes fresh blocks and checkpoint rows keep-first (phase 3) — so
// the warm path pays two lock acquisitions per tree pair, not two per
// keyroot pair.
func (c *Cache) zsDistanceMemo(a, b *flat, costs Costs, sc *dpScratch, ta, tb *tree.Node) int {
	n1 := len(a.labels)
	n2 := len(b.labels)
	td, fd := sc.dpTables(n1, n2, costs)
	k1 := len(a.kr)
	k2 := len(b.kr)
	blocks, done, hitCells := sc.blockRefs(k1 * k2)
	cid := c.ids.costID(costs)
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

	var misses, ckHits, ckMisses, twins int64
	full := sc.fullRows(k1)
	c.subMu.RLock()
	for ki, i := range a.kr {
		if skip != nil && skip[ki] {
			continue
		}
		m1 := i - int(a.lmld[i]) + 1
		l1 := a.spineOff[ki+1] - a.spineOff[ki]
		row := blocks[ki*k2 : (ki+1)*k2]
		for kj, j := range b.kr {
			row[kj] = 0 // scratch slot may hold a stale index
			if m1*(j-int(b.lmld[j])+1) < minCells {
				continue
			}
			// A resident block whose shape does not match the two spines
			// (an imported record keyed to the wrong trees) is a miss.
			bl, ok := c.subs[subKey{a: a.krID[ki], b: b.krID[kj], costs: cid}]
			if ok && bl.l1 == l1 && bl.l2 == b.spineOff[kj+1]-b.spineOff[kj] {
				hitCells = append(hitCells, bl.cells)
				row[kj] = int32(len(hitCells))
			}
		}
	}
	resumable := ckEligible
	minR0 := n1
	if ckEligible {
		row := blocks[lastKi*k2:]
		for kj := range b.kr {
			resume[kj] = ckptRef{}
			if row[kj] != 0 {
				continue
			}
			found := false
			for t := len(a.ckptRow) - 1; t >= 0; t-- {
				cells, ok := c.ckpts[ckptKey{prefix: a.ckptID[t], b: b.krID[kj], costs: cid}]
				if ok {
					resume[kj] = ckptRef{row: a.ckptRow[t], cells: cells}
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
	sc.hits = hitCells // keep the grown capacity for the next pair

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
	//
	// Twin keyroot pairs are copied instead (DESIGN.md §13). A row whose
	// twin row is complete copies its spine rows over the rectangle's
	// columns, one copy per td row. Otherwise a deferred pair whose twin
	// pair is produced queues its columns for one gather per td row, run
	// before the next DP that may read them and at the end of the row.
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
			rows := a.spine[a.spineOff[ki]:a.spineOff[ki+1]]
			ti := int(a.twin[ki])
			trows := a.spine[a.spineOff[ti]:a.spineOff[ti+1]]
			kj := kjLo
			if ti != ki && full[ti] {
				for r, x := range rows {
					copy(td[x][bLo:bHi+1], td[trows[r]][bLo:bHi+1])
				}
				for ; kj < k2 && b.kr[kj] <= bHi; kj++ {
					if !rdone[kj] {
						rdone[kj] = true
						twins++
					}
				}
				full[ki] = kjLo == 0 && kj == k2
				continue
			}
			complete := true
			cols := sc.twinCols[:0]
			for ; kj < k2 && b.kr[kj] <= bHi; kj++ {
				if rdone[kj] {
					continue
				}
				if h := row[kj]; h != 0 {
					rdone[kj] = true
					restoreBlock(td, rows, b.spine[b.spineOff[kj]:b.spineOff[kj+1]], hitCells[h-1])
					continue
				}
				j := b.kr[kj]
				lj := int(b.lmld[j])
				if m1*(j-lj+1) >= minCells {
					complete = false
					continue
				}
				rdone[kj] = true
				if tj := int(b.twin[kj]); (ti != ki || tj != kj) && done[ti*k2+tj] {
					shift := int32(lj) - b.lmld[b.kr[tj]]
					for _, y := range b.spine[b.spineOff[kj]:b.spineOff[kj+1]] {
						cols = append(cols, y, y-shift)
					}
					twins++
					continue
				}
				if len(cols) > 0 && int(cols[len(cols)-2]) >= lj {
					// This DP reads inside subtree(j): gather first.
					gatherTwin(td, rows, trows, cols)
					cols = cols[:0]
				}
				treedist(a, b, i, j, costs, td, fd)
				computed += int64(m1 * (j - lj + 1))
			}
			if len(cols) > 0 {
				gatherTwin(td, rows, trows, cols)
			}
			sc.twinCols = cols
			full[ki] = complete && kjLo == 0 && kj == k2
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
				c.mirroredSubDP(ta.Children[m], k, a, tb, b, costs, td)
			default:
				nLeft++
			}
		}
		c.counts.subdpLeft.Add(nLeft)
		c.counts.subdpMirror.Add(nMirrored)
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
		ti := int(a.twin[ki])
		trows := a.spine[a.spineOff[ti]:a.spineOff[ti+1]]
		row := blocks[ki*k2 : (ki+1)*k2]
		rdone := done[ki*k2 : (ki+1)*k2]
		isRoot := ki == lastKi
		for kj, j := range b.kr {
			if row[kj] != 0 {
				continue // hit: materialised lazily if a later DP reads it
			}
			lj := int(b.lmld[j])
			cells := m1 * (j - lj + 1)
			if cells < minCells {
				continue // deferred: materialised only if a later DP reads it
			}
			misses++
			cols := b.spine[b.spineOff[kj]:b.spineOff[kj+1]]
			if tj := int(b.twin[kj]); (ti != ki || tj != kj) && done[ti*k2+tj] {
				// Twin miss: the twin pair missed under the same block key
				// and already produced its cells, published its block and
				// captured its checkpoint rows, so this pair only copies
				// the cells. In a resumed root row both pairs resumed from
				// the same checkpoint row, and only the rows past it exist.
				dst, src := rows, trows
				if isRoot && resumable {
					ckHits++
					r0 := int(resume[kj].row)
					for len(dst) > 0 && int(dst[0]) < r0 {
						dst, src = dst[1:], src[1:]
					}
				}
				copyTwin(td, dst, src, cols, int32(lj)-b.lmld[b.kr[tj]])
				rdone[kj] = true
				twins++
				continue
			}
			if isRoot && resumable {
				// Block miss served by a checkpoint: recompute only the
				// rows after the deepest matching prefix boundary. No
				// block is harvested (the prefix-spine cells were never
				// written); boundaries passed on the way down are.
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
				fdR0 := fd[r0][:j-lj+2]
				decodeRow(fdR0[1:], resume[kj].cells, fdR0[0])
				treedistFrom(a, b, i, j, costs, td, fd, r0)
				computed += int64((m1 - r0) * (j - lj + 1))
				rdone[kj] = true
				freshCk = captureCkpts(freshCk, sc, a, ckptKey{b: b.krID[kj], costs: cid}, j-lj+1, fd, r0)
				continue
			}
			if isRoot {
				runKids(0)
			}
			materialise(li, i, lj, j)
			// captureCkpts reads this run's fd rows, so a checkpoint-eligible
			// root-row pair stays on the general kernel even when its b
			// keyroot is a leaf: leafCol writes no fd.
			capture := isRoot && ckEligible
			if capture {
				treedistFrom(a, b, i, j, costs, td, fd, 0)
			} else {
				treedist(a, b, i, j, costs, td, fd)
			}
			computed += int64(cells)
			rdone[kj] = true
			sc.cells = harvestBlock(sc.cells, td, rows, cols)
			var bl subBlock
			bl, sc.enc = encodeBlock(sc.cells, int32(len(rows)), int32(len(cols)), sc.enc)
			fresh = append(fresh, subEntry{key: subKey{a: a.krID[ki], b: b.krID[kj], costs: cid}, block: bl})
			if capture {
				freshCk = captureCkpts(freshCk, sc, a, ckptKey{b: b.krID[kj], costs: cid}, j-lj+1, fd, 0)
			}
		}
	}

	if sub {
		materialise(0, n1-1, 0, n2-1)
	}
	var d int
	if h := blocks[k1*k2-1]; h != 0 {
		// Root-pair hit that nothing recomputed ever read: the distance is
		// the block's last cell, no materialisation needed.
		n := int(a.spineOff[k1]-a.spineOff[k1-1]) * int(b.spineOff[k2]-b.spineOff[k2-1])
		d = int(blockCell(hitCells[h-1], n, n-1))
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
	k := c.counts
	k.dpCells.Add(computed)
	k.twinBlocks.Add(twins)
	k.subHits.Add(int64(len(hitCells)))
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
func (c *Cache) mirroredSubDP(tk *tree.Node, k *kidShape, a *flat, tb *tree.Node, b *flat, costs Costs, td [][]int32) {
	ma := c.mirrorFlat(tk, k.fp)
	mb := c.mirrorFlat(tb, b.fp)
	sc := getScratch()
	c.zsDistanceMemo(ma, mb, costs, sc, nil, nil)
	restoreRect(td, a.mir[k.off:k.off+k.size], b.mir, sc.td[:len(ma.labels)*len(mb.labels)])
	putScratch(sc)
}

// captureCkpts encodes the fd rows (m2+1 cells) completed at root-child
// boundaries deeper than r0 out of the pooled DP table, keyed by (prefix
// fold, b subtree, costs) for publication; key carries the last two.
// Boundaries at or above r0 were either restored from the memo (r0
// itself) or never computed this run.
func captureCkpts(dst []ckptEntry, sc *dpScratch, a *flat, key ckptKey, m2 int, fd [][]int32, r0 int) []ckptEntry {
	for t, r := range a.ckptRow {
		if int(r) <= r0 {
			continue
		}
		row := fd[r][:m2+1]
		sc.enc = appendRow(sc.enc[:0], row[1:], row[0])
		key.prefix = a.ckptID[t]
		dst = append(dst, ckptEntry{key: key, cells: string(sc.enc)})
	}
	return dst
}

// restoreBlock writes a memoised block's cells into the td cells the
// originating treedist call wrote: the row-major spine(i) x spine(j) grid.
// cells holds len(rows)·len(cols) cells of two or four bytes (subBlock).
func restoreBlock(td [][]int32, rows, cols []int32, cells string) {
	w := 2 * len(cols)
	if len(cells) != w*len(rows) {
		w *= 2
		for r, x := range rows {
			tdRow := td[x]
			v := cells[r*w : (r+1)*w]
			for ci, y := range cols {
				tdRow[y] = cell32(v, ci)
			}
		}
		return
	}
	for r, x := range rows {
		tdRow := td[x]
		v := cells[r*w : (r+1)*w]
		for ci, y := range cols {
			tdRow[y] = cell16(v, ci)
		}
	}
}

// copyTwin writes the td cells rows × cols from the twin pair's cells:
// row rows[r] reads row trows[r], and column y reads column y − shift.
func copyTwin(td [][]int32, rows, trows, cols []int32, shift int32) {
	for r, x := range rows {
		dst, src := td[x], td[trows[r]]
		for _, y := range cols {
			dst[y] = src[y-shift]
		}
	}
}

// gatherTwin is copyTwin over the columns of several pairs: cols holds
// each column followed by the column of the twin pair it reads.
func gatherTwin(td [][]int32, rows, trows, cols []int32) {
	for r, x := range rows {
		dst, src := td[x], td[trows[r]]
		for k := 0; k+1 < len(cols); k += 2 {
			dst[cols[k]] = src[cols[k+1]]
		}
	}
}

// restoreRect writes the row-major rectangle vals into td at the given
// rows and columns.
func restoreRect(td [][]int32, rows, cols []int32, vals []int32) {
	for r, x := range rows {
		tdRow := td[x]
		v := vals[r*len(cols):]
		for ci, y := range cols {
			tdRow[y] = v[ci]
		}
	}
}

// harvestBlock copies the td cells a treedist call just wrote, the
// row-major spine(i) x spine(j) grid, into dst (reused scratch).
func harvestBlock(dst []int32, td [][]int32, rows, cols []int32) []int32 {
	dst = dst[:0]
	for _, x := range rows {
		tdRow := td[x]
		for _, y := range cols {
			dst = append(dst, tdRow[y])
		}
	}
	return dst
}

// treedist fills td for the subtree pair rooted at post-order indices (i, j)
// with the Zhang–Shasha forest recurrence, choosing a kernel by the pair's
// shape (DESIGN.md §6). A leaf keyroot on either side makes the DP a single
// row or column whose fd reads are all pure functions of the index, so
// leafRow and leafCol hold them in registers and write td only; every
// other pair runs the general kernel, treedistFrom. All three compute the
// same cells with the same values. The fd rows a leaf pair leaves behind
// are unspecified, so a caller that reads fd after the call (checkpoint
// capture) must call treedistFrom itself.
func treedist(a, b *flat, i, j int, c Costs, td, fd [][]int32) {
	switch {
	case int(a.lmld[i]) == i:
		leafRow(a, b, i, j, c, td)
	case int(b.lmld[j]) == j:
		leafCol(a, b, i, j, c, td)
	default:
		treedistFrom(a, b, i, j, c, td, fd, 0)
	}
}

// leafRow is treedist for a leaf a keyroot i: the a-forest is the one node
// i, so the DP is the single row fd[1]. Its predecessor row fd[0] and its
// fdA row fd[lmld(i)−li] = fd[0] are both the insertion ramp cj·Insert,
// and its column-0 cell is Delete, so the row runs on registers.
func leafRow(a, b *flat, i, j int, c Costs, td [][]int32) {
	lj := b.lmld[j]
	ins, del, ren := int32(c.Insert), int32(c.Delete), int32(c.Rename)
	la := a.labels[i]
	bl := b.lmld[lj : j+1]
	blab := b.labels[lj : j+1][:len(bl)]
	tdRow := td[i][lj : j+1][:len(bl)]
	left := del    // fd[1][0]
	up := int32(0) // fd[0][cj], the ramp
	for cj, l := range bl {
		diag := up
		up += ins
		d := up + del
		if l == lj {
			if la != blab[cj] {
				diag += ren
			}
			d = min(d, diag)
			d = min(d, left+ins)
			tdRow[cj] = d
		} else {
			d = min(d, (l-lj)*ins+tdRow[cj])
			d = min(d, left+ins)
		}
		left = d
	}
}

// leafCol is treedist for a leaf b keyroot j: the b-forest is the one node
// j, so the DP is the single column fd[·][1]. The recurrence reads fdA
// only at column 0, where fd[lmld(di)−li][0] = (lmld(di)−li)·Delete, and
// carries the column's running cell (the next row's up) in a register, so
// the column writes no fd.
func leafCol(a, b *flat, i, j int, c Costs, td [][]int32) {
	li := a.lmld[i]
	ins, del, ren := int32(c.Insert), int32(c.Delete), int32(c.Rename)
	lb := b.labels[j]
	al := a.lmld[li : i+1]
	alab := a.labels[li : i+1][:len(al)]
	tdRows := td[li : i+1][:len(al)]
	up := ins        // fd[0][1]
	left := int32(0) // fd[r][0] = r·Delete
	for r, l := range al {
		diag := left
		left += del
		tdCell := &tdRows[r][j]
		d := left + ins
		if l == li {
			if alab[r] != lb {
				diag += ren
			}
			d = min(d, diag)
			d = min(d, up+del)
			*tdCell = d
		} else {
			d = min(d, (l-li)*del+*tdCell)
			d = min(d, up+del)
		}
		up = d
	}
}

// treedistFrom is the general kernel. It fills fd rows r+1 for r in
// [r0, m1) over columns 1..m2 and the td cells of the pair's whole-forest
// positions. Row 0 (the insertion ramp) and column 0 (the deletion ramp)
// are the same for every pair, so dpTables writes them once per tree pair
// and no kernel writes them again. fdA, the row where a split a-forest's
// left part ends, is indexed by bl[cj]−lj, the column where the split
// b-forest's left part ends. Each cell first takes min(up+Delete,
// fdA+td), which does not depend on the west neighbour, and then makes one
// compare against left+Insert, so the row's serial chain is one
// compare-and-move per cell.
//
// Checkpoint resume (§13): when r0 > 0, the caller has installed the
// memoised fd row completed at a-forest prefix [0..r0-1] as fd[r0], and
// the row loop starts at prefix length r0. Only the root keyroot is ever
// resumed, so li == 0 and fd row indices coincide with prefix lengths.
// The skipped rows' td cells are NOT produced; the caller's
// all-or-nothing rule guarantees nothing later reads them, and the rows
// that do run read only fd rows >= r0 plus row 0 (a suffix node's lmld is
// either >= r0, or it is the root itself, whose lmld row is the ramp).
func treedistFrom(a, b *flat, i, j int, c Costs, td, fd [][]int32, r0 int) {
	li := int(a.lmld[i])
	lj := b.lmld[j]
	ins, del, ren := int32(c.Insert), int32(c.Delete), int32(c.Rename)
	bl := b.lmld[lj : j+1]
	blab := b.labels[lj : j+1][:len(bl)]
	m2 := len(bl)
	for di := li + r0; di <= i; di++ {
		r := di - li
		prev := fd[r][1 : m2+1][:len(bl)]
		cur := fd[r+1][1 : m2+1][:len(bl)]
		tdRow := td[di][lj : j+1][:len(bl)]
		fdA := fd[int(a.lmld[di])-li]
		left := int32(r+1) * del // fd[r+1][0]
		if int(a.lmld[di]) == li {
			// The a-forest is a whole subtree: cells where the b-forest is
			// too close a treedist entry and use the rename recurrence.
			la := a.labels[di]
			diag := int32(r) * del // fd[r][0]
			for cj, l := range bl {
				up := prev[cj]
				d := up + del
				if l == lj {
					if la != blab[cj] {
						diag += ren
					}
					d = min(d, diag)
					d = min(d, left+ins)
					tdRow[cj] = d
				} else {
					d = min(d, fdA[l-lj]+tdRow[cj])
					d = min(d, left+ins)
				}
				cur[cj] = d
				left = d
				diag = up
			}
		} else {
			for cj, l := range bl {
				d := min(prev[cj]+del, fdA[l-lj]+tdRow[cj])
				d = min(d, left+ins)
				cur[cj] = d
				left = d
			}
		}
	}
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
