package ted

import (
	"encoding/binary"
	"sort"
	"sync"

	"silvervale/internal/tree"
)

// This file holds the state side of the subtree-block memo and the
// forest-prefix checkpoint memo (DESIGN.md §13); the DP driver that
// consumes them is Cache.zsDistanceMemo in ted.go.
//
// A block is the td output of one keyroot-pair treedist call: the exact
// distances for every subtree pair owned by that keyroot pair, laid out
// row-major over the two left spines. Because those values are a pure
// function of the two keyroot subtrees plus the cost model, blocks are
// addressed by (subtree pair, cost model) — the same content-addressing
// discipline as the distance memo, one level down. Keys are oriented (no
// symmetric canonicalisation): a block's row/column roles are fixed by
// which side each subtree was on, and canonicalising would require
// transposing payloads on hit for no measured win.
//
// Both memos key by interned ids, not by fingerprints: the cache's memoIDs
// maps every keyroot-subtree fingerprint and prefix fold of an installed
// flat to a dense uint32, so a key is 12 bytes instead of 72. Both store
// their cells narrow and exact (see subBlock and the checkpoint row
// codec below).

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

	// subEntryOverhead approximates per-entry bytes on top of the cell
	// payload: the map slot (12-byte key, 24-byte subBlock, padded to 40
	// bytes) at the table's load, plus the payload's size-class rounding.
	// Cold babelstream, minibude and tealeaf matrices measure 79–97 bytes.
	subEntryOverhead = 88

	// ckptDefaultMaxBytes bounds the in-memory checkpoint memo, separate
	// from the block bound so checkpoint pressure can never evict blocks
	// (or vice versa) and perturb the block reuse counters.
	ckptDefaultMaxBytes = 128 << 20

	// ckptEntryOverhead approximates per-entry bytes on top of the encoded
	// row: the map slot (12-byte key, 16-byte string, padded to 32 bytes)
	// at the table's load, plus the row's size-class rounding. The same
	// matrices measure 56–82 bytes.
	ckptEntryOverhead = 64

	// pathDefaultMinSaving is the smallest predicted saving, in DP cells,
	// for which a root child's sub-DP runs mirrored. Below it the sub-DP's
	// fixed costs (a second scratch, its own probe and publish, the copy
	// back) outweigh the cells it saves.
	pathDefaultMinSaving = 1 << 12
)

// memoIDs interns the content addresses the memos key by. ids maps every
// keyroot-subtree fingerprint and root-children prefix fold of a flat the
// cache installs (and both fingerprints of every imported block) to a
// dense id; costs lists the cost models seen, a model's id being its
// index. Ids are never recycled: like the flats that carry them they live
// as long as the cache, so a memo entry's key stays meaningful after the
// flats that produced it are gone.
type memoIDs struct {
	mu    sync.Mutex
	ids   map[tree.Fingerprint]uint32
	costs []Costs
}

func newMemoIDs() *memoIDs { return &memoIDs{ids: map[tree.Fingerprint]uint32{}} }

// intern returns the ids of fps, minting one per fingerprint on first
// sight, under one lock.
func (m *memoIDs) intern(fps []tree.Fingerprint) []uint32 {
	out := make([]uint32, len(fps))
	m.mu.Lock()
	for i, fp := range fps {
		id, ok := m.ids[fp]
		if !ok {
			id = uint32(len(m.ids))
			m.ids[fp] = id
		}
		out[i] = id
	}
	m.mu.Unlock()
	return out
}

// costID returns the id of cost model c, minting one on first sight.
func (m *memoIDs) costID(c Costs) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, k := range m.costs {
		if k == c {
			return uint32(i)
		}
	}
	m.costs = append(m.costs, c)
	return uint32(len(m.costs) - 1)
}

// table returns the reverse mapping, fingerprints and cost models indexed
// by id, for snapshot export.
func (m *memoIDs) table() ([]tree.Fingerprint, []Costs) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fps := make([]tree.Fingerprint, len(m.ids))
	for fp, id := range m.ids {
		fps[id] = fp
	}
	return fps, append([]Costs(nil), m.costs...)
}

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

// ckptKey addresses one memoised root-row DP row: the ids of the a-side
// root-children prefix fold and the b-side keyroot subtree, and the cost
// model's id.
type ckptKey struct {
	prefix, b, costs uint32
}

// ckptRef is one probe result: the DP row index to resume from plus the
// memoised row. A zero ref means no checkpoint hit.
type ckptRef struct {
	row   int32
	cells string
}

// ckptEntry is one freshly captured checkpoint row awaiting publication.
type ckptEntry struct {
	key   ckptKey
	cells string
}

// A checkpoint row is the fd row fd[r][0..m2] completed at a root-child
// boundary. Its border cell fd[r][0] = r·Delete is not stored; cells 1..m2
// are stored as the differences between row neighbours, starting from
// the border, each a zigzag varint. A row neighbour differs by at most
// one edit (the difference lies in [−Delete, +Insert]), so under unit
// costs every cell is one byte; larger costs take more bytes per cell,
// never a truncated value. The row's cell count needs no header: m2 is
// the size of the b subtree, which its id pins (fingerprints carry the
// node count).

// appendRow encodes row, whose border cell is border, onto dst.
func appendRow(dst []byte, row []int32, border int32) []byte {
	prev := int64(border)
	for _, v := range row {
		dst = binary.AppendVarint(dst, int64(v)-prev)
		prev = int64(v)
	}
	return dst
}

// decodeRow fills row, whose border cell is border, from an encoded
// checkpoint row of exactly len(row) cells.
func decodeRow(row []int32, cells string, border int32) {
	prev := int64(border)
	k := 0
	for i := range row {
		var u uint64
		for s := 0; ; s += 7 {
			b := cells[k]
			k++
			u |= uint64(b&0x7f) << s
			if b < 0x80 {
				break
			}
		}
		prev += int64(u>>1) ^ -int64(u&1)
		row[i] = int32(prev)
	}
}

// ckptRowBytes is the accounting size of one checkpoint entry.
func ckptRowBytes(cells string) int64 {
	return int64(len(cells)) + ckptEntryOverhead
}

// subKey addresses one keyroot-pair block: the ids of the oriented
// subtree pair and the cost model's id.
type subKey struct {
	a, b, costs uint32
}

// subBlock is one memoised treedist output: l1 x l2 cells in row-major
// order, each little-endian, two bytes wide when every cell of the block
// lies in [0, 65535] and four bytes (the int32 bit pattern) otherwise, so
// the width is len(cells)/(l1·l2). A string because a block is immutable
// once published; it is shared across goroutines on that basis.
type subBlock struct {
	cells  string
	l1, l2 int32 // spine lengths
}

// subEntry is one freshly built block awaiting publication.
type subEntry struct {
	key   subKey
	block subBlock
}

// subBlockBytes is the accounting size of one entry.
func subBlockBytes(b subBlock) int64 {
	return int64(len(b.cells)) + subEntryOverhead
}

// blockCell returns cell k of a block payload holding n cells.
func blockCell(cells string, n, k int) int32 {
	if len(cells) == 2*n {
		return cell16(cells, k)
	}
	return cell32(cells, k)
}

// cell16 and cell32 decode cell k of a narrow and a wide block payload.
func cell16(cells string, k int) int32 { return int32(cells[2*k]) | int32(cells[2*k+1])<<8 }

func cell32(cells string, k int) int32 {
	return int32(uint32(cells[4*k]) | uint32(cells[4*k+1])<<8 | uint32(cells[4*k+2])<<16 | uint32(cells[4*k+3])<<24)
}

// encodeBlock encodes vals, an l1 x l2 block's cells in row-major order,
// choosing the narrowest width that holds every cell. buf is scratch; it
// is returned, possibly grown, for the next call.
func encodeBlock(vals []int32, l1, l2 int32, buf []byte) (subBlock, []byte) {
	narrow := true
	for _, v := range vals {
		if uint32(v) > 0xffff {
			narrow = false
			break
		}
	}
	buf = buf[:0]
	for _, v := range vals {
		if narrow {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return subBlock{cells: string(buf), l1: l1, l2: l2}, buf
}

// publishSubBlocks installs freshly built blocks and checkpoint rows
// under one write lock, keep-first: a racing builder of the same key
// computed a bit-identical payload, so the loser's copy is garbage, never
// a conflict. It returns how many blocks it installed. Both
// memos are in-memory only (§13): a block is re-derivable from its
// keyroot DP, so cross-process reuse goes through the watch snapshot, not
// the store.
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
		c.ckpts[e.key] = e.cells
		c.ckptBytes += ckptRowBytes(e.cells)
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
// of snapshot export/import: full fingerprints and int32 cells, whatever
// the in-memory keys and cell widths. Vals is a fresh copy decoded from
// the block's narrow payload, owned by the caller.
type SubtreeBlockRecord struct {
	A, B   tree.Fingerprint
	Costs  Costs
	L1, L2 int32
	Vals   []int32
}

// ExportSubtreeBlocks snapshots the memo in deterministic key order, so
// identical memo contents always serialise identically.
func (c *Cache) ExportSubtreeBlocks() []SubtreeBlockRecord {
	fps, costs := c.ids.table()
	c.subMu.RLock()
	recs := make([]SubtreeBlockRecord, 0, len(c.subs))
	for k, b := range c.subs {
		vals := make([]int32, int(b.l1)*int(b.l2))
		for x := range vals {
			vals[x] = blockCell(b.cells, len(vals), x)
		}
		recs = append(recs, SubtreeBlockRecord{
			A: fps[k.a], B: fps[k.b], Costs: costs[k.costs], L1: b.l1, L2: b.l2, Vals: vals})
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
// Malformed records — nonpositive or inconsistent shapes — are skipped,
// and a record whose shape does not match the spines of the keyroot pair
// it is keyed under is never served: the DP probe counts it a miss. An
// import can lose warmth but never correctness.
func (c *Cache) ImportSubtreeBlocks(recs []SubtreeBlockRecord) int {
	fresh := make([]subEntry, 0, len(recs))
	var buf []byte
	for _, r := range recs {
		if r.L1 <= 0 || r.L2 <= 0 || int(r.L1)*int(r.L2) != len(r.Vals) {
			continue
		}
		ids := c.ids.intern([]tree.Fingerprint{r.A, r.B})
		var bl subBlock
		bl, buf = encodeBlock(r.Vals, r.L1, r.L2, buf)
		fresh = append(fresh, subEntry{
			key:   subKey{a: ids[0], b: ids[1], costs: c.ids.costID(r.Costs)},
			block: bl,
		})
	}
	return c.publishSubBlocks(fresh, nil)
}
