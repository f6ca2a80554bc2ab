package ted

import (
	"sort"

	"silvervale/internal/tree"
)

// This file holds the state side of the subtree-block memo (DESIGN.md
// §13); the DP driver that consumes it is Cache.zsDistanceMemo in ted.go.
//
// A block is the td output of one keyroot-pair treedist call: the exact
// distances for every subtree pair owned by that keyroot pair, laid out
// row-major over the two left spines. Because those values are a pure
// function of the two keyroot subtrees plus the cost model, blocks are
// addressed by (subtree fingerprint pair, costs) — the same
// content-addressing discipline as the distance memo, one level down.
// Keys are oriented (no symmetric canonicalisation): a block's row/column
// roles are fixed by which side each subtree was on, and canonicalising
// would require transposing payloads on hit for no measured win.

const (
	// subDefaultMinCells is the memoisation threshold on the keyroot
	// pair's DP size (m1*m2, the forest-distance work a hit saves). Below
	// it the map probe, harvest copy, and entry overhead cost more than
	// the DP they replace; such pairs always recompute.
	subDefaultMinCells = 64

	// subDefaultMaxBytes bounds the in-memory memo. Spines are short —
	// a block holds L1*L2 cells, not m1*m2 — so a whole-corpus working
	// set measures in tens of megabytes and the bound exists to cap
	// pathological corpora, not to cycle on normal ones.
	subDefaultMaxBytes = 128 << 20

	// subEntryOverhead approximates per-entry bookkeeping bytes (key,
	// block header, map bucket share) on top of the payload.
	subEntryOverhead = 120

	// ckptDefaultMaxBytes bounds the in-memory checkpoint memo, separate
	// from the block bound so checkpoint pressure can never evict blocks
	// (or vice versa) and perturb the block reuse counters.
	ckptDefaultMaxBytes = 128 << 20

	// ckptEntryOverhead approximates per-entry bookkeeping bytes.
	ckptEntryOverhead = 96

	// pathDefaultMinSaving is the smallest predicted saving, in DP cells,
	// for which a root child's sub-DP runs mirrored. Below it the sub-DP's
	// fixed costs (a second scratch, its own probe and publish, the copy
	// back) outweigh the cells it saves.
	pathDefaultMinSaving = 1 << 12
)

// Forest-prefix fold hashing (same FNV-1a / djb2 construction as
// tree.Fingerprint, so collision resistance is the same ~128-bit story).
const (
	ckptFnvOffset = 14695981039346656037
	ckptFnvPrime  = 1099511628211
	ckptDjbOffset = 5381
)

// ckptFold mixes the next root-child subtree fingerprint into the running
// prefix fold. The fold of fp(C1)..fp(Ck) content-addresses the cut
// forest C1..Ck — exactly the a-side state the root-row DP has consumed
// after the row at Ck's boundary.
func ckptFold(acc, fp tree.Fingerprint) tree.Fingerprint {
	if acc == (tree.Fingerprint{}) {
		acc = tree.Fingerprint{H1: ckptFnvOffset, H2: ckptDjbOffset}
	}
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			b := uint64(byte(x >> s))
			acc.H1 = (acc.H1 ^ b) * ckptFnvPrime
			acc.H2 = acc.H2*33 + b
		}
	}
	mix(fp.H1)
	mix(fp.H2)
	mix(uint64(fp.Size))
	acc.Size += fp.Size
	return acc
}

// ckptKey addresses one memoised root-row DP row: the fold of the a-side
// root-children prefix, the b-side keyroot subtree, and the cost model.
type ckptKey struct {
	prefix tree.Fingerprint
	b      tree.Fingerprint
	costs  Costs
}

// ckptRef is one probe result: the DP row index to resume from plus the
// memoised row values (m2+1 cells). A zero ref means no checkpoint hit.
type ckptRef struct {
	row  int32
	vals []int32
}

// ckptEntry is one freshly captured checkpoint row awaiting publication.
type ckptEntry struct {
	key  ckptKey
	vals []int32
}

// ckptRowBytes is the accounting size of one checkpoint entry.
func ckptRowBytes(vals []int32) int64 {
	return int64(len(vals))*4 + ckptEntryOverhead
}

// subKey addresses one keyroot-pair block: oriented subtree fingerprints
// plus the cost model.
type subKey struct {
	a, b  tree.Fingerprint
	costs Costs
}

// subBlock is one memoised treedist output. Immutable once published;
// shared across goroutines and with export snapshots on that basis.
type subBlock struct {
	l1, l2 int32 // spine lengths: vals is l1 x l2 row-major
	vals   []int32
}

// subEntry is one freshly built block awaiting publication.
type subEntry struct {
	key   subKey
	block *subBlock
}

// subBlockBytes is the accounting size of one entry.
func subBlockBytes(b *subBlock) int64 {
	return int64(len(b.vals))*4 + subEntryOverhead
}

// publishSubBlocks installs freshly built blocks and checkpoint rows
// under one write lock, keep-first: a racing builder of the same key
// computed a bit-identical payload, so the loser's copy is garbage, never
// a conflict. It returns how many blocks it installed. Both memos are
// in-memory only (§13): a block is re-derivable from its keyroot DP, so
// cross-process reuse goes through the watch snapshot, not the store.
func (c *Cache) publishSubBlocks(fresh []subEntry, freshCk []ckptEntry) int {
	installed := 0
	c.subMu.Lock()
	for _, e := range fresh {
		if _, ok := c.subs[e.key]; ok {
			continue
		}
		c.subs[e.key] = e.block
		c.subBytes += subBlockBytes(e.block)
		installed++
	}
	var evicted int64
	if c.subBytes > c.subMax {
		evicted = evictLocked(c.subs, &c.subBytes, c.subMax, subBlockBytes)
	}
	for _, e := range freshCk {
		if _, ok := c.ckpts[e.key]; ok {
			continue
		}
		c.ckpts[e.key] = e.vals
		c.ckptBytes += ckptRowBytes(e.vals)
	}
	var ckEvicted int64
	if c.ckptBytes > c.ckptMax {
		ckEvicted = evictLocked(c.ckpts, &c.ckptBytes, c.ckptMax, ckptRowBytes)
	}
	c.subMu.Unlock()
	c.counts.subEvicted.Add(evicted)
	c.counts.ckptEvicted.Add(ckEvicted)
	return installed
}

// evictLocked drops entries of one memo map in map-iteration order until
// its accounted size is back under three quarters of bound — hysteresis so a
// memo riding the limit does not evict on every publish — and returns how
// many it dropped. Random-order eviction is sound for every memo it serves:
// a dropped block costs a future recompute and a dropped checkpoint row a
// future full root-row DP, never a wrong answer; the bounds are sized so
// normal corpora never get here. Callers hold subMu.
func evictLocked[K comparable, V any](m map[K]V, bytes *int64, bound int64, size func(V) int64) int64 {
	target := bound - bound/4
	var n int64
	for k, v := range m {
		if *bytes <= target {
			break
		}
		delete(m, k)
		*bytes -= size(v)
		n++
	}
	return n
}

// SubtreeBlockRecord is the portable form of one memoised block, the unit
// of snapshot export/import. Vals aliases the live block payload — blocks
// are immutable — so exporting does not copy the working set; callers
// must treat records as read-only.
type SubtreeBlockRecord struct {
	A, B   tree.Fingerprint
	Costs  Costs
	L1, L2 int32
	Vals   []int32
}

// ExportSubtreeBlocks snapshots the memo in deterministic key order, so
// identical memo contents always serialise identically.
func (c *Cache) ExportSubtreeBlocks() []SubtreeBlockRecord {
	c.subMu.RLock()
	recs := make([]SubtreeBlockRecord, 0, len(c.subs))
	for k, b := range c.subs {
		recs = append(recs, SubtreeBlockRecord{
			A: k.a, B: k.b, Costs: k.costs, L1: b.l1, L2: b.l2, Vals: b.vals})
	}
	c.subMu.RUnlock()
	sort.Slice(recs, func(i, j int) bool {
		ri, rj := &recs[i], &recs[j]
		if ri.A != rj.A {
			return ri.A.Less(rj.A)
		}
		if ri.B != rj.B {
			return ri.B.Less(rj.B)
		}
		ci, cj := ri.Costs, rj.Costs
		if ci.Insert != cj.Insert {
			return ci.Insert < cj.Insert
		}
		if ci.Delete != cj.Delete {
			return ci.Delete < cj.Delete
		}
		return ci.Rename < cj.Rename
	})
	return recs
}

// ImportSubtreeBlocks seeds the memo from exported records (keep-first
// against anything already present) and returns how many were installed.
// Malformed records — nonpositive or inconsistent shapes — are skipped:
// an import can lose warmth but never correctness.
func (c *Cache) ImportSubtreeBlocks(recs []SubtreeBlockRecord) int {
	fresh := make([]subEntry, 0, len(recs))
	for _, r := range recs {
		if r.L1 <= 0 || r.L2 <= 0 || int(r.L1)*int(r.L2) != len(r.Vals) {
			continue
		}
		fresh = append(fresh, subEntry{
			key:   subKey{a: r.A, b: r.B, costs: r.Costs},
			block: &subBlock{l1: r.L1, l2: r.L2, vals: r.Vals},
		})
	}
	return c.publishSubBlocks(fresh, nil)
}
