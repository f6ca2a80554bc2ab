package store

// Tier-record key separation tests: the store-key hazard the tiered
// engine introduces is an exact run warm-starting from estimates. The
// tier tier is keyed by the canonical fingerprint pair and the routing
// tier that fired, lives apart from the exact tier, and every record
// echoes its key, so no mix can ever serve.

import (
	"os"
	"path/filepath"
	"testing"

	"silvervale/internal/tree"
)

func tierKey(seed uint64, tier uint8) TierKey {
	return TierKey{
		A:    tree.Fingerprint{H1: seed, H2: seed * 31, Size: uint32(seed%100 + 1)},
		B:    tree.Fingerprint{H1: seed * 7, H2: seed * 131, Size: uint32(seed%90 + 2)},
		Tier: tier,
	}
}

// TestTierRoundTrip: a put estimate survives reopen and is served only
// for its exact key — the same pair under the other routing tier, or the
// pair swapped, must miss.
func TestTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := tierKey(42, 1)
	if _, ok := s.LookupTierDist(k); ok {
		t.Fatal("empty store must miss")
	}
	s.PutTierDist(k, 123.25)
	s.Close()

	s2 := openT(t, dir, Options{})
	d, ok := s2.LookupTierDist(k)
	if !ok || d != 123.25 {
		t.Fatalf("warm tier lookup = %v, %v; want 123.25, true", d, ok)
	}
	variants := map[string]TierKey{}
	v := k
	v.Tier = 2
	variants["different routing tier"] = v
	v = k
	v.A, v.B = v.B, v.A
	variants["swapped pair"] = v
	for name, vk := range variants {
		if d, ok := s2.LookupTierDist(vk); ok {
			t.Fatalf("%s served %v — tier records must never cross keys", name, d)
		}
	}
}

// TestTierNeverMixesWithExact: the regression the tiered engine demands —
// an exact-run store (dist records) never serves a tiered lookup for the
// same tree pair, and a tiered-run store (tier records) never serves an
// exact lookup. The two live in separate record tiers with separate key
// spaces.
func TestTierNeverMixesWithExact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	fa := tree.Fingerprint{H1: 3, H2: 5, Size: 40}
	fb := tree.Fingerprint{H1: 7, H2: 11, Size: 50}
	dk := DistKey{A: fa, B: fb, Insert: 1, Delete: 1, Rename: 1}
	tk := TierKey{A: fa, B: fb, Tier: 1}
	s.PutDist(dk, 17)     // the exact run writes the true distance
	s.PutTierDist(tk, 44) // a tiered run writes an estimate for the same pair
	s.Close()

	s2 := openT(t, dir, Options{})
	if d, ok := s2.LookupDist(dk); !ok || d != 17 {
		t.Fatalf("exact lookup = %d, %v; want 17, true", d, ok)
	}
	if d, ok := s2.LookupTierDist(tk); !ok || d != 44 {
		t.Fatalf("tier lookup = %v, %v; want 44, true", d, ok)
	}
	// An exact value must never leak into the other routing tier's
	// lookup, and the estimate must never replace the exact record.
	other := tk
	other.Tier = 2
	if d, ok := s2.LookupTierDist(other); ok {
		t.Fatalf("tier-2 lookup served %v", d)
	}
	if d, ok := s2.LookupDist(dk); !ok || d != 17 {
		t.Fatalf("exact record disturbed by tier write: %d, %v", d, ok)
	}
}

// TestTierKeyEchoCatchesAliasing: a tier record copied under another tier
// key's file name (simulated name collision — e.g. a routing-tier mix a
// broken hash would allow) fails the payload key echo, counts
// corrupt_skipped, and is not served.
func TestTierKeyEchoCatchesAliasing(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k1 := tierKey(1, 1)
	k2 := tierKey(1, 2) // same pair, other routing tier
	s.PutTierDist(k1, 9.5)
	s.Close()

	n1, n2 := tierName(k1), tierName(k2)
	src := filepath.Join(dir, tierDir, n1[:2], n1)
	dstDir := filepath.Join(dir, tierDir, n2[:2])
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dstDir, n2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if d, ok := s2.LookupTierDist(k2); ok {
		t.Fatalf("aliased tier record served as %v", d)
	}
	if st := s2.Stats(); st.CorruptSkipped != 1 {
		t.Fatalf("corrupt_skipped = %d, want 1", st.CorruptSkipped)
	}
	// The true key still serves.
	if d, ok := s2.LookupTierDist(k1); !ok || d != 9.5 {
		t.Fatalf("true tier lookup = %v, %v", d, ok)
	}
}

// TestTierClearAndNil: ClearFS empties the tier tier alongside dist and
// index, and a nil store's tier methods are inert.
func TestTierClearAndNil(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := tierKey(8, 1)
	s.PutTierDist(k, 2)
	s.Close()
	if err := Clear(dir); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if _, ok := s2.LookupTierDist(k); ok {
		t.Fatal("ClearFS left tier records behind")
	}

	var nilStore *Store
	if _, ok := nilStore.LookupTierDist(k); ok {
		t.Fatal("nil tier lookup hit")
	}
	nilStore.PutTierDist(k, 1)
}
