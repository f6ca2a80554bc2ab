package ted

import (
	"math/rand"
	"strings"
	"testing"

	"silvervale/internal/obs"
	"silvervale/internal/tree"
)

// TestCacheStatsAccounting pins the bookkeeping behind CacheStats: every
// lookup is exactly one hit or one miss, identity short-circuits count as
// hits, unit-cost (b,a) lookups canonicalise onto the (a,b) entry, and
// HitRate/String agree with the raw counters. A recorder attached at
// construction reports every counter under its stable name with exactly
// the CacheStats value.
func TestCacheStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := NewCache()
	rec := obs.NewRecorder()
	c.SetRecorder(rec)
	a, b := randTree(r, 30), randTree(r, 35)

	c.Distance(a, b) // miss
	c.Distance(a, b) // hit
	c.Distance(b, a) // hit via symmetric canonicalisation
	c.Distance(a, a.Clone())

	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1: %+v", st.Misses, st)
	}
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3 (two memo, one identity): %+v", st.Hits, st)
	}
	if st.Identity != 1 {
		t.Fatalf("identity = %d, want 1: %+v", st.Identity, st)
	}
	// Exactly one of the two orientations is reversed relative to the
	// canonical fingerprint order; it was looked up either once (b,a) or
	// twice (a,b twice).
	if st.Symmetric != 1 && st.Symmetric != 2 {
		t.Fatalf("symmetric = %d, want 1 or 2: %+v", st.Symmetric, st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1: %+v", st.Entries, st)
	}
	if got, want := st.HitRate(), 3.0/4.0; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
	// The single miss flattened both trees for the first time.
	if st.FlatMisses != 2 || st.FlatHits != 0 || st.Flats != 2 {
		t.Fatalf("flat memo = %d hits / %d misses / %d stored, want 0/2/2: %+v",
			st.FlatHits, st.FlatMisses, st.Flats, st)
	}
	s := st.String()
	for _, frag := range []string{"3 hits", "(1 identity)", "1 misses", "hit rate 75.0%"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Errorf("zero-value hit rate should be 0")
	}

	// A third tree against a memoised one: a is served from the flat memo,
	// the newcomer is flattened fresh.
	d := randTree(r, 20)
	c.Distance(a, d)
	st = c.Stats()
	if st.FlatHits != 1 || st.FlatMisses != 3 {
		t.Fatalf("flat memo after third tree = %d hits / %d misses, want 1/3: %+v",
			st.FlatHits, st.FlatMisses, st)
	}
	if got, want := st.FlatHitRate(), 1.0/4.0; got != want {
		t.Fatalf("flat hit rate = %v, want %v", got, want)
	}

	// A lone node against a is answered by the single-node bound gate.
	c.Distance(a, tree.New("lone"))
	if st = c.Stats(); st.BoundPruned != 1 {
		t.Fatalf("bound pruned = %d, want 1: %+v", st.BoundPruned, st)
	}
	for _, frag := range []string{"1 bound-pruned", "flat memo"} {
		if s := st.String(); !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
	if (CacheStats{}).FlatHitRate() != 0 {
		t.Errorf("zero-value flat hit rate should be 0")
	}

	// Bigger trees exercise the subtree-block memo too.
	big1, big2, big3 := randTree(r, 400), randTree(r, 420), randTree(r, 410)
	c.Distance(big1, big2)
	c.Distance(big1, big3)
	before := c.Stats()
	c.ApproxDistance(big2, big3)
	st = c.Stats()
	// A pq-gram lookup reads memoised profiles only: the hit, miss and
	// symmetric counters account exact TED and must not move.
	if st.Hits != before.Hits || st.Misses != before.Misses || st.Symmetric != before.Symmetric {
		t.Fatalf("ApproxDistance moved the exact-TED counters: %d/%d/%d hits/misses/symmetric, want %d/%d/%d",
			st.Hits, st.Misses, st.Symmetric, before.Hits, before.Misses, before.Symmetric)
	}
	if st.SubtreeHits == 0 || st.SubtreeMisses == 0 {
		t.Fatalf("subtree memo idle, the recorder comparison proves little: %+v", st)
	}
	assertRecorderMatches(t, rec, map[string]uint64{
		"ted.cache.hits":             st.Hits,
		"ted.cache.misses":           st.Misses,
		"ted.cache.identity":         st.Identity,
		"ted.cache.symmetric":        st.Symmetric,
		"ted.bound_pruned":           st.BoundPruned,
		"ted.flat_memo.hits":         st.FlatHits,
		"ted.flat_memo.misses":       st.FlatMisses,
		"ted.subtree_blocks_hit":     st.SubtreeHits,
		"ted.subtree_blocks_miss":    st.SubtreeMisses,
		"ted.subtree_blocks_evicted": st.SubtreeEvicted,
		"ted.ckpt_rows_hit":          st.CheckpointHits,
		"ted.ckpt_rows_miss":         st.CheckpointMisses,
		"ted.ckpt_rows_evicted":      st.CheckpointEvicted,
	})
}

// assertRecorderMatches checks each recorder counter against the typed
// stats field it must equal.
func assertRecorderMatches(t *testing.T, rec *obs.Recorder, want map[string]uint64) {
	t.Helper()
	got := rec.Snapshot().Counters
	for name, v := range want {
		if n, ok := got[name]; !ok || uint64(n) != v {
			t.Errorf("recorder %s = %d (present %v), typed stats say %d", name, n, ok, v)
		}
	}
}
