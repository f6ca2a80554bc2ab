package ted

import "sync"

// dpScratch bundles every per-call buffer the exact TED path needs: the
// flattened representations of both trees (uncached path only — the cached
// path borrows memoised flats instead), the keyroot bool table, the DP
// matrix backings with their row headers, the memoised path's per-grid
// marks, and the stamp/count tables and stack the bound gates use. All
// slices grow to the high-water mark of the trees a scratch has seen and
// are never shrunk, so a steady-state matrix sweep reuses the same memory
// for every cell.
//
// Matrix contents are deliberately NOT zeroed between uses. dpTables
// writes fd's row 0 and column 0 for each tree pair; past those, the
// Zhang–Shasha recurrence writes every forest-distance cell before reading
// it, and only reads treedist cells written earlier in the same run (each
// subtree pair belongs to exactly one keyroot pair, processed in ascending
// order). The equivalence property test pins this invariant against the
// seed implementation, which zeroed both matrices on every call.
type dpScratch struct {
	fa, fb flat   // uncached-path flatten targets
	seen   []bool // keyroot collection table; all-false between uses

	td, fd         []int32   // DP matrix backings
	tdRows, fdRows [][]int32 // row headers over td/fd
	blocks         []int32   // per-keyroot-pair probe results: 1 + index into hits, 0 on no hit (memoised path)
	hits           []string  // the hit blocks' payloads, in probe order (memoised path)
	done           []bool    // per-keyroot-pair lazily-restored marks (memoised path)
	full           []bool    // per-a-keyroot marks: every pair of the row produced (memoised path)
	twinCols       []int32   // td columns awaiting one twin gather, each followed by its source column (memoised path)
	ckrefs         []ckptRef // per-b-keyroot checkpoint probe results (memoised path)
	mirrored       []bool    // per-root-child mirrored-orientation marks (path strategy)
	skip           []bool    // per-a-keyroot rows owned by a mirrored sub-DP (path strategy)
	cells          []int32   // a harvested block's cells (memoised path)
	enc            []byte    // a block or checkpoint row being encoded (memoised path)

	stamp []int32 // bound gate: label-id stamps, indexed by interned id
	cnt   []int32 // bound gate: label multiplicities for stamped ids
	epoch int32   // current stamp generation

	tdStack []int32 // bound gate: the top-down bound's child lists and DP rows
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

func getScratch() *dpScratch  { return scratchPool.Get().(*dpScratch) }
func putScratch(s *dpScratch) { scratchPool.Put(s) }

// grow32 returns s with length n, reallocating only when capacity is
// exceeded. Contents are unspecified.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// prepFlat sizes the scratch-owned flat f for an n-node tree and returns
// a keyroot table of at least n false entries.
func (s *dpScratch) prepFlat(f *flat, n int) {
	f.labels = grow32(f.labels, n)
	f.lmld = grow32(f.lmld, n)
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
	}
}

// dpTables shapes the treedist/forestdist matrices for an n1 x n2 tree
// pair under costs c — the shared prologue of zsDistance and the memoised
// Cache.zsDistanceMemo. Every keyroot pair's forest DP starts from the
// same borders, fd[0][cj] = cj·Insert (the insertion ramp) and fd[r][0] =
// r·Delete, so they are written here once per tree pair and no kernel
// writes them again. Every other cell is unspecified (see the dpScratch
// comment).
func (s *dpScratch) dpTables(n1, n2 int, c Costs) (td, fd [][]int32) {
	td = s.matrix(&s.td, &s.tdRows, n1, n2)
	fd = s.matrix(&s.fd, &s.fdRows, n1+1, n2+1)
	ins, del := int32(c.Insert), int32(c.Delete)
	row0 := fd[0]
	for cj := range row0 {
		row0[cj] = int32(cj) * ins
	}
	for r := 1; r <= n1; r++ {
		fd[r][0] = int32(r) * del
	}
	return td, fd
}

// blockRefs returns a scratch slice of n grid slots with unspecified
// contents; the memoised path's probe phase overwrites every slot before
// any is read, with 0 or 1 + the index of the hit block's payload in the
// returned hits slice, which starts empty. The parallel done slice
// (returned cleared) marks grid slots whose block has already been
// materialised into td.
func (s *dpScratch) blockRefs(n int) ([]int32, []bool, []string) {
	if cap(s.blocks) < n {
		s.blocks = make([]int32, n)
		s.done = make([]bool, n)
	}
	done := s.done[:n]
	for i := range done {
		done[i] = false
	}
	clear(s.hits)
	return s.blocks[:n], done, s.hits[:0]
}

// fullRows returns k cleared per-a-keyroot row marks.
func (s *dpScratch) fullRows(k int) []bool {
	if cap(s.full) < k {
		s.full = make([]bool, k)
	}
	full := s.full[:k]
	clear(full)
	return full
}

// ckptRefs returns a scratch slice of n checkpoint probe slots with
// unspecified contents; the probe phase overwrites every slot.
func (s *dpScratch) ckptRefs(n int) []ckptRef {
	if cap(s.ckrefs) < n {
		s.ckrefs = make([]ckptRef, n)
	}
	return s.ckrefs[:n]
}

// pathMarks returns cleared scratch mark slices for k root children and
// k1 a-side keyroot rows.
func (s *dpScratch) pathMarks(k, k1 int) (mirrored, skip []bool) {
	if cap(s.mirrored) < k {
		s.mirrored = make([]bool, k)
	}
	if cap(s.skip) < k1 {
		s.skip = make([]bool, k1)
	}
	mirrored, skip = s.mirrored[:k], s.skip[:k1]
	clear(mirrored)
	clear(skip)
	return mirrored, skip
}

// matrix shapes rows r x c row headers over backing, growing both to the
// high-water mark. Row contents are unspecified.
func (s *dpScratch) matrix(backing *[]int32, rows *[][]int32, r, c int) [][]int32 {
	*backing = grow32(*backing, r*c)
	if cap(*rows) < r {
		*rows = make([][]int32, r)
	}
	out := (*rows)[:r]
	b := *backing
	for i := 0; i < r; i++ {
		out[i] = b[i*c : (i+1)*c]
	}
	return out
}

// stampTables sizes the gate's stamp/count arrays to the current interner
// id space and bumps the epoch, clearing on first use or wrap-around so a
// stale stamp can never alias the new generation.
func (s *dpScratch) stampTables() ([]int32, []int32, int32) {
	n := internTableSize()
	if cap(s.stamp) < n {
		s.stamp = make([]int32, n)
		s.cnt = make([]int32, n)
		s.epoch = 0
	}
	s.stamp = s.stamp[:n]
	s.cnt = s.cnt[:n]
	s.epoch++
	if s.epoch <= 0 { // wrapped: reset stamps so old generations cannot match
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	return s.stamp, s.cnt, s.epoch
}
