package core

import (
	"sync"

	"silvervale/internal/corpus"
	"silvervale/internal/store"
)

// The unit memo (DESIGN.md §12): every engine index path looks each unit
// up here before running the frontend, so a unit the engine indexed
// before — in this codebase, an earlier version of it, or another
// codebase entirely — costs a hash, not a parse. The package-level
// IndexCodebase* functions keep no memo; they stay the cold oracles.

// The memo holds the working set, not history. Windows are counted in
// engine index calls: a candidate lives unitMemoWindow calls past the
// last call that touched it, or unitMemoHotWindow calls once it has
// served two lookups, and the first call after that drops it. Both are
// sized from the gaps measured between two uses of one candidate on the
// benchmark workloads (EXPERIMENTS.md). A twice-served unit is working
// set — a port a daemon diverges again and again, the base version every
// watch sweep re-reads and a revert returns to — and came back within at
// most 121 calls, so the hot window is the power of two above that:
// dropping such a unit early re-parses it into a second copy of one its
// caller still holds. A new version — an uploaded mutation diverged and
// repeated, an edit the next edit replaces — is touched once or twice
// and then never again, so all a longer window buys it is heap. 93% of
// its returns came within 32 calls; the rest are re-parsed once more.
const (
	unitMemoWindow    = 32
	unitMemoHotWindow = 128
)

// unitKey addresses the candidates for one unit: its language, root file
// and role, the options digest it was indexed under, and the content hash
// of its root file's bytes. The key narrows; validation decides — a
// candidate is served only when its recorded dependency closure hashes to
// its SrcHash against the new file set (unitSrcHash, the rule the prior
// path uses), so two codebases with the same root file but different
// headers never cross-serve.
type unitKey struct {
	lang       corpus.Lang
	file, role string
	opts       store.ContentHash
	root       store.ContentHash
}

// unitCand is one memoised unit, the number of the last index call that
// served or published it, and how many lookups it has served.
type unitCand struct {
	ui    UnitIndex
	stamp uint64
	hits  int
}

// expires returns the last call number c stays in the memo for.
func (c *unitCand) expires() uint64 {
	if c.hits >= 2 {
		return c.stamp + unitMemoHotWindow
	}
	return c.stamp + unitMemoWindow
}

// unitMemo is the engine-owned, content-addressed unit memo. Candidates
// are immutable once published (their trees are shared with every index
// served from them); only stamps and hit counts change, under mu. A nil
// *unitMemo is the package-level paths' "no memo": it keeps nothing and
// serves only the prior unit a caller hands it.
type unitMemo struct {
	mu    sync.Mutex
	calls uint64
	m     map[unitKey][]*unitCand
}

func newUnitMemo() *unitMemo { return &unitMemo{m: map[unitKey][]*unitCand{}} }

// begin opens one engine index call and returns its number, which stamps
// every candidate the call touches. It first drops every expired
// candidate.
func (m *unitMemo) begin() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	for k, cands := range m.m {
		kept := cands[:0]
		for _, c := range cands {
			if m.calls <= c.expires() {
				kept = append(kept, c)
			}
		}
		clear(cands[len(kept):])
		if len(kept) == 0 {
			delete(m.m, k)
		} else {
			m.m[k] = kept
		}
	}
	return m.calls
}

// unitKeyOf addresses unit u of cb under the options digest od: the one
// hash a unit costs before its candidates are validated.
func unitKeyOf(cb *corpus.Codebase, u corpus.Unit, od store.ContentHash) unitKey {
	h := store.NewHasher()
	h.WriteString(cb.Files[u.File])
	return unitKey{lang: cb.Lang, file: u.File, role: u.Role, opts: od, root: h.Sum()}
}

// lookup serves unit u of cb, under the options digest od, from the
// first candidate whose dependency closure still hashes to its SrcHash,
// stamping it with call and counting the hit. A prior unit (from a prior
// index of the same codebase, or nil) is one more candidate, tried after
// the memo's own; when it validates it is published, so the memo serves
// it from then on. It also returns the unit's key, which publish takes
// after a miss. A nil memo skips the key hash and tries prior alone.
func (m *unitMemo) lookup(cb *corpus.Codebase, u corpus.Unit, od store.ContentHash, call uint64, prior *UnitIndex) (unitKey, UnitIndex, bool) {
	var k unitKey
	if m != nil {
		k = unitKeyOf(cb, u, od)
		m.mu.Lock()
		cands := append([]*unitCand(nil), m.m[k]...)
		m.mu.Unlock()
		for _, c := range cands {
			if servable(cb, u.File, u.Role, &c.ui) {
				m.mu.Lock()
				c.stamp = max(c.stamp, call)
				c.hits++
				m.mu.Unlock()
				return k, c.ui, true
			}
		}
	}
	if prior != nil && servable(cb, u.File, u.Role, prior) {
		m.publish(k, *prior, call)
		return k, *prior, true
	}
	return k, UnitIndex{}, false
}

// servable reports whether ui may be served for the unit rooted at file
// with role in cb: same role, and its recorded dependency closure (root,
// spliced includes, system flags, missing-include absences) hashes to its
// SrcHash over cb's files. The memo and the prior path share this rule.
func servable(cb *corpus.Codebase, file, role string, ui *UnitIndex) bool {
	return ui.Role == role && ui.SrcHash != (store.ContentHash{}) &&
		unitSrcHash(cb, file, role, ui.Deps, ui.MissingDeps) == ui.SrcHash
}

// publish records a unit under k, keep-first: when a candidate with the
// same SrcHash (the same closure, so an equal unit) is already there, the
// memo keeps it and only refreshes its stamp. A nil memo publishes
// nothing.
func (m *unitMemo) publish(k unitKey, ui UnitIndex, call uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.m[k] {
		if c.ui.SrcHash == ui.SrcHash {
			c.stamp = max(c.stamp, call)
			return
		}
	}
	m.m[k] = append(m.m[k], &unitCand{ui: ui, stamp: call})
}
