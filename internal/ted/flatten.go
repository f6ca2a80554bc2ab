package ted

import (
	"sort"
	"sync"

	"silvervale/internal/tree"
)

// Label interning is shared process-wide: ids are only ever compared for
// equality, so one append-only table serves every tree, every cache, and
// every engine worker. Sharing is what makes per-tree flat memos reusable
// across calls — a label id minted while flattening one tree means the
// same byte string when it appears in any other tree. The table never
// shrinks; the label universe (node roles and operation names emitted by
// the indexer) is small and bounded in practice.
var (
	internMu  sync.RWMutex
	internIDs = make(map[string]int32)
)

// internID returns the dense id for label, minting one on first sight.
func internID(label string) int32 {
	internMu.RLock()
	id, ok := internIDs[label]
	internMu.RUnlock()
	if ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	if id, ok := internIDs[label]; ok {
		return id
	}
	id = int32(len(internIDs))
	internIDs[label] = id
	return id
}

// internTableSize reports the current id-space size; gate scratch arrays
// indexed by label id are sized against it.
func internTableSize() int {
	internMu.RLock()
	n := len(internIDs)
	internMu.RUnlock()
	return n
}

// flat is a tree flattened to post-order arrays, the representation
// Zhang–Shasha operates on. A flat is immutable once built; memoised
// flats (see Cache) are shared across goroutines on that basis.
//
// Memoised flats (newFlat) additionally carry the keyroot content
// plumbing the subtree-block memo needs (DESIGN.md §13): the interned id
// of the subtree rooted at each keyroot, and the partition of post-order
// indices into per-keyroot left spines. Every node belongs to exactly one
// keyroot's spine (the keyroot of its lmld class), which is precisely the
// set of treedist cells that keyroot pair writes into td — so a block
// restore needs only these index lists. The pooled package-level path
// leaves them nil and always runs the monolithic DP.
type flat struct {
	labels []int32 // interned label id per post-order index
	lmld   []int32 // leftmost leaf descendant per post-order index
	kr     []int   // keyroots in increasing order

	fp       tree.Fingerprint // the whole tree's fingerprint (mirror-flat memo key)
	krID     []uint32         // interned fingerprint of the subtree rooted at kr[k]
	spine    []int32          // post-order indices grouped by owning keyroot
	spineOff []int32          // spine[spineOff[k]:spineOff[k+1]] = kr[k]'s spine, ascending

	// twin[k] is the first keyroot whose subtree equals kr[k]'s in labels
	// and shape, k itself when none does (DESIGN.md §13): a keyroot pair's
	// td block equals its twin pair's.
	twin []int32

	// Forest-prefix checkpoints for the root keyroot's DP row (DESIGN.md
	// §13): ckptRow[k] is the fd row index completed at the boundary after
	// the root's (k+1)-th child, and ckptID[k] is the interned content
	// address of the cut forest C1..C(k+1), a fold of the children's
	// subtree fingerprints. Used as the tree's left-operand state only; nil
	// on the pooled path and on mirrored flats.
	ckptRow []int32
	ckptID  []uint32

	// Path-strategy shape data (DESIGN.md §13), nil/zero on the pooled
	// path and on mirrored flats. wL and wR are the tree's left- and
	// right-path keyroot weights W(T) = Σ |T(k)| over keyroots k, the
	// factors of the Zhang–Shasha cell count W(T1)·W(T2). mir[r] is the
	// post-order index of the node at post-order r of the mirrored tree
	// (post_mirror(x) = n−1−pre(x)), and kids describes each root child as
	// the row side of a sub-DP.
	wL, wR int64
	mir    []int32
	kids   []kidShape
}

// kidShape is one root child Cm of a memoised flat, seen as the row side
// of a root-child sub-DP (Cm, b).
type kidShape struct {
	fp         tree.Fingerprint // content address of Cm (mirror-flat memo key)
	start      int32            // first post-order index inside Cm
	size       int32            // |Cm|
	off        int32            // Cm's mirrored post-order window is mir[off:off+size]
	kiLo, kiHi int32            // kr[kiLo:kiHi]: the keyroot rows inside Cm (the root's spine excluded)
	wL         int64            // Σ keyroot-subtree sizes over kr[kiLo:kiHi]
	wR         int64            // right-path keyroot weight of Cm as a standalone tree
}

// flattener drives the post-order walk. A struct method recurses without
// the closure allocation the seed paid per flatten.
type flattener struct {
	labels []int32
	lmld   []int32
	idx    int
}

// visit records node and returns its leftmost-leaf post-order index.
func (fl *flattener) visit(node *tree.Node) int32 {
	first := int32(-1)
	for _, c := range node.Children {
		l := fl.visit(c)
		if first < 0 {
			first = l
		}
	}
	i := fl.idx
	fl.idx++
	fl.labels[i] = internID(node.Label)
	if first < 0 {
		first = int32(i)
	}
	fl.lmld[i] = first
	return first
}

// fillFlat populates f (whose labels/lmld must already have length n) from
// t and collects keyroots. seen must have length >= n and be all-false; it
// is restored to all-false before returning, so callers can pool it.
//
// Keyroots are the root plus every node with a left sibling — equivalently
// the highest node for each distinct lmld value. Scanning post-order
// indices downward, the first node seen per lmld value is that highest
// node, which yields the keyroots in one pass over a bool table instead of
// the seed's map. The descending collection is then handed to sort.Ints:
// keyroot count equals leaf count, so on wide flat trees the old insertion
// sort was O(n²) while sort.Ints keeps this O(n log n).
func fillFlat(f *flat, t *tree.Node, seen []bool) {
	fl := flattener{labels: f.labels, lmld: f.lmld}
	fl.visit(t)
	f.kr = f.kr[:0]
	for i := len(f.labels) - 1; i >= 0; i-- {
		l := f.lmld[i]
		if !seen[l] {
			seen[l] = true
			f.kr = append(f.kr, i)
		}
	}
	sort.Ints(f.kr)
	for _, k := range f.kr {
		seen[f.lmld[k]] = false
	}
}

// newFlat builds an exactly-sized, immutable flat for memoisation, its
// memo-key fingerprints interned in ids. Unlike the pooled path it
// allocates fresh backing arrays so the result can outlive any scratch
// buffers.
func newFlat(t *tree.Node, ids *memoIDs) *flat { return buildFlat(t, ids, true) }

// newMirrorFlat builds the memoised flat of a mirrored tree. A mirrored
// sub-DP runs the plain keyroot loop: it never resumes its root row from a
// checkpoint and never plans paths, so the flat carries no checkpoint
// boundaries (nor their interned ids) and no path-strategy shape data.
func newMirrorFlat(t *tree.Node, ids *memoIDs) *flat { return buildFlat(t, ids, false) }

func buildFlat(t *tree.Node, ids *memoIDs, rootRow bool) *flat {
	n := t.Size()
	f := &flat{
		labels: make([]int32, n),
		lmld:   make([]int32, n),
	}
	fillFlat(f, t, make([]bool, n))
	// Trim the keyroot slice to size: memoised flats live for the whole
	// sweep, so the append slack is worth returning to the allocator.
	f.kr = append(make([]int, 0, len(f.kr)), f.kr...)
	f.buildSpines(t, ids, rootRow)
	return f
}

// buildSpines fills the keyroot content plumbing of a memoised flat: per-
// keyroot subtree ids (interned from one amortised SubtreeFingerprints
// walk, post-order-aligned with the flat arrays) and the spine partition.
// Spines are built counting-sort style — keyroots and lmld values are in
// bijection, so a slot table indexed by lmld value maps every node to its
// owning keyroot in O(n) with no hashing, and the ascending scan leaves
// each spine slice sorted, the order treedist writes its td cells in.
// With rootRow it also fills the checkpoint boundaries and the path data.
func (f *flat) buildSpines(t *tree.Node, ids *memoIDs, rootRow bool) {
	n := len(f.labels)
	sub := t.SubtreeFingerprints()
	f.fp = sub[n-1]
	k := len(f.kr)
	// keys holds the keyroot subtree fingerprints, then the prefix folds,
	// so one intern call covers the flat.
	keys := make([]tree.Fingerprint, k, k+len(t.Children))
	slot := make([]int32, n)
	for ki, i := range f.kr {
		keys[ki] = sub[i]
		slot[f.lmld[i]] = int32(ki)
	}
	f.spineOff = make([]int32, k+1)
	for x := 0; x < n; x++ {
		f.spineOff[slot[f.lmld[x]]+1]++
	}
	for ki := 1; ki <= k; ki++ {
		f.spineOff[ki] += f.spineOff[ki-1]
	}
	f.spine = make([]int32, n)
	next := make([]int32, k)
	copy(next, f.spineOff[:k])
	for x := 0; x < n; x++ {
		ki := slot[f.lmld[x]]
		f.spine[next[ki]] = int32(x)
		next[ki]++
	}
	// Root-child boundaries for the checkpoint memo: the root keyroot's
	// forest starts at post-order 0, so the DP row completed after child
	// Ck ends at cumulative-size offset end(Ck)+1. The prefix fold at each
	// boundary reuses the amortised per-subtree fingerprints.
	if nch := len(t.Children); rootRow && nch > 0 {
		f.ckptRow = make([]int32, nch)
		var acc tree.Fingerprint
		end := int32(-1)
		for ci, ch := range t.Children {
			end += int32(ch.Size())
			acc = ckptFold(acc, sub[end])
			f.ckptRow[ci] = end + 1
			keys = append(keys, acc)
		}
	}
	all := ids.intern(keys)
	f.krID = all[:k:k]
	if len(all) > k {
		f.ckptID = all[k:]
	}
	f.buildTwins()
	if rootRow {
		f.buildPaths(t, sub)
	}
}

// buildTwins fills twin. Keyroots with equal ids are only candidates: each
// is checked against the first keyroot of its id node by node, so an id
// shared by two different subtrees (a fingerprint collision) leaves the
// later one without a twin rather than pairing them.
func (f *flat) buildTwins() {
	first := make(map[uint32]int32, len(f.kr))
	f.twin = make([]int32, len(f.kr))
	for ki, i := range f.kr {
		f.twin[ki] = int32(ki)
		t, ok := first[f.krID[ki]]
		if !ok {
			first[f.krID[ki]] = int32(ki)
		} else if f.sameSubtree(f.kr[t], i) {
			f.twin[ki] = t
		}
	}
}

// sameSubtree reports whether the subtrees rooted at post-order indices p
// and q have the same labels and shape. A subtree is the post-order range
// [lmld, root], and labels plus leftmost-leaf offsets over that range
// determine an ordered labelled tree.
func (f *flat) sameSubtree(p, q int) bool {
	lp, lq := int(f.lmld[p]), int(f.lmld[q])
	if p-lp != q-lq {
		return false
	}
	for d := 0; d <= p-lp; d++ {
		if f.labels[lp+d] != f.labels[lq+d] || int(f.lmld[lp+d])-lp != int(f.lmld[lq+d])-lq {
			return false
		}
	}
	return true
}

// buildPaths fills the path-strategy shape data: the mirror map and the
// right-path weights from one pre-order walk, the left-path weights from
// the keyroot array, and per root child its keyroot-row range and both
// weights.
func (f *flat) buildPaths(t *tree.Node, sub []tree.Fingerprint) {
	n := int32(len(f.labels))
	for _, k := range f.kr {
		f.wL += int64(k - int(f.lmld[k]) + 1)
	}
	// The root is first in pre-order and last in both post-orders; its
	// children are walked here so each one's standalone weight is kept.
	w := pathWalker{mir: make([]int32, n), n: n, pre: 1}
	w.mir[n-1] = n - 1
	f.mir = w.mir
	f.wR = int64(n)
	if len(t.Children) == 0 {
		return
	}
	f.kids = make([]kidShape, len(t.Children))
	start := int32(0)
	for m, ch := range t.Children {
		size, inside := w.node(ch)
		if m < len(t.Children)-1 {
			f.wR += size
		}
		f.wR += inside
		k := &f.kids[m]
		k.fp = sub[start+int32(size)-1]
		k.start, k.size = start, int32(size)
		k.off = n - k.size - start - 1 // pre(Cm) = start+1
		k.kiLo = int32(sort.SearchInts(f.kr, int(start)))
		k.kiHi = int32(sort.SearchInts(f.kr, int(start+k.size)))
		for _, x := range f.kr[k.kiLo:k.kiHi] {
			k.wL += int64(x - int(f.lmld[x]) + 1)
		}
		k.wR = size + inside
		start += k.size
	}
}

// pathWalker numbers nodes in pre- and post-order to fill the mirror map.
type pathWalker struct {
	mir       []int32
	n         int32
	pre, post int32
}

// node walks one subtree and returns its size and the summed sizes of its
// strict descendants that have a right sibling: the subtree's standalone
// right-path keyroot weight is their sum (its root plus every node with a
// right sibling).
func (w *pathWalker) node(nd *tree.Node) (size, inside int64) {
	p := w.pre
	w.pre++
	size = 1
	last := len(nd.Children) - 1
	for ci, ch := range nd.Children {
		s, in := w.node(ch)
		size += s
		inside += in
		if ci < last {
			inside += s
		}
	}
	w.mir[w.n-1-p] = w.post
	w.post++
	return size, inside
}

// mirrorTree returns a copy of t with every child list reversed — the tree
// whose left paths are t's right paths. Source positions are dropped; TED
// and fingerprints ignore them.
func mirrorTree(t *tree.Node) *tree.Node {
	m := &tree.Node{Label: t.Label}
	if nc := len(t.Children); nc > 0 {
		m.Children = make([]*tree.Node, nc)
		for i, c := range t.Children {
			m.Children[nc-1-i] = mirrorTree(c)
		}
	}
	return m
}
