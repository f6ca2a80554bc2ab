package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"silvervale/internal/cbdb"
	"silvervale/internal/obs"
	"silvervale/internal/tree"
)

func distKey(seed uint64) DistKey {
	return DistKey{
		A:      tree.Fingerprint{H1: seed, H2: seed * 31, Size: uint32(seed%100 + 1)},
		B:      tree.Fingerprint{H1: seed * 7, H2: seed * 131, Size: uint32(seed%90 + 2)},
		Insert: 1, Delete: 1, Rename: 1,
	}
}

func sampleDB() *cbdb.DB {
	return &cbdb.DB{
		Codebase: "babelstream",
		Model:    "omp",
		Lang:     "cxx",
		Units: []cbdb.UnitRecord{{
			File: "main.cpp", Role: "main", SLOC: 10, LLOC: 7,
			SourceLines:   []string{"int main() {", "}"},
			SourceLinesPP: []string{"int main() {", "}", "int pp;"},
			LineFiles:     []string{"main.cpp", "main.cpp"},
			LineNums:      []int{1, 2},
			Trees:         map[string]string{"tsem": "(TranslationUnit (FunctionDecl))"},
		}},
	}
}

// openT opens a store rooted in dir and closes it at test end.
func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDistRoundTrip: a put distance survives process "restart" (reopen)
// and is returned only for its exact key.
func TestDistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := distKey(42)
	if _, ok := s.LookupDist(k); ok {
		t.Fatal("empty store must miss")
	}
	s.PutDist(k, 17)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Misses != 1 || st.BytesWritten == 0 || st.Flushes == 0 {
		t.Fatalf("writer stats: %+v", st)
	}

	s2 := openT(t, dir, Options{})
	d, ok := s2.LookupDist(k)
	if !ok || d != 17 {
		t.Fatalf("warm lookup = %d, %v; want 17, true", d, ok)
	}
	if _, ok := s2.LookupDist(distKey(43)); ok {
		t.Fatal("different key must miss")
	}
	st = s2.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesRead == 0 {
		t.Fatalf("reader stats: %+v", st)
	}
}

// TestIndexRoundTrip: the index tier preserves the full cbdb record.
func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := IndexKey{App: "babelstream", Model: "omp", Content: ContentHash{H1: 5, H2: 9}}
	s.PutIndex(k, sampleDB())
	s.Close()

	s2 := openT(t, dir, Options{})
	db, ok := s2.LookupIndex(k)
	if !ok {
		t.Fatal("warm index lookup missed")
	}
	if db.Codebase != "babelstream" || db.Model != "omp" || db.Lang != "cxx" {
		t.Fatalf("metadata: %+v", db)
	}
	u := db.Units[0]
	if len(u.SourceLinesPP) != 3 || len(u.LineNums) != 2 || u.Trees["tsem"] == "" {
		t.Fatalf("unit lost fields: %+v", u)
	}
	// Same app/model but different content must miss: content addressing
	// is what keeps a stale index from serving changed sources.
	if _, ok := s2.LookupIndex(IndexKey{App: "babelstream", Model: "omp", Content: ContentHash{H1: 6, H2: 9}}); ok {
		t.Fatal("changed content hash must miss")
	}
}

// TestNilStoreIsInert: every method on a nil *Store is a safe no-op, the
// contract that keeps call sites free of nil checks.
func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.LookupDist(distKey(1)); ok {
		t.Fatal("nil lookup hit")
	}
	if _, ok := s.LookupIndex(IndexKey{}); ok {
		t.Fatal("nil index lookup hit")
	}
	s.PutDist(distKey(1), 3)
	s.PutIndex(IndexKey{}, sampleDB())
	s.SetRecorder(nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.BytesRead != 0 ||
		st.BytesWritten != 0 || st.TierBytes != nil || st.Degraded {
		t.Fatal("nil stats not zero")
	}
	if s.Readonly() {
		t.Fatal("nil store is not readonly (it is nothing)")
	}
}

// TestReadonlyDropsWrites: a readonly store serves hits but never mutates
// the directory.
func TestReadonlyDropsWrites(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := distKey(7)
	s.PutDist(k, 9)
	s.Close()

	ro := openT(t, dir, Options{Readonly: true})
	if !ro.Readonly() {
		t.Fatal("Readonly() false")
	}
	if d, ok := ro.LookupDist(k); !ok || d != 9 {
		t.Fatalf("readonly lookup = %d, %v", d, ok)
	}
	ro.PutDist(distKey(8), 1)
	ro.Close()
	if st := ro.Stats(); st.BytesWritten != 0 || st.Flushes != 0 {
		t.Fatalf("readonly store wrote: %+v", st)
	}
	if _, ok := openT(t, dir, Options{}).LookupDist(distKey(8)); ok {
		t.Fatal("readonly put leaked to disk")
	}
}

// TestCorruptionIsSkippedNotServed: truncated and bit-flipped records are
// counted and treated as misses; a rewrite then heals the entry.
func TestCorruptionIsSkippedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := distKey(99)
	s.PutDist(k, 1234)
	s.Close()

	name := distName(k)
	path := filepath.Join(dir, distDir, name[:2], name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func() []byte{
		"truncated": func() []byte { return data[:len(data)/2] },
		"bitflip":   func() []byte { c := append([]byte{}, data...); c[len(c)/2] ^= 0x40; return c },
		"garbage":   func() []byte { return []byte("not a record at all") },
		"empty":     func() []byte { return nil },
	}
	for mname, mutate := range mutations {
		t.Run(mname, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := openT(t, dir, Options{})
			if d, ok := s2.LookupDist(k); ok {
				t.Fatalf("corrupt record served: %d", d)
			}
			st := s2.Stats()
			if st.CorruptSkipped != 1 {
				t.Fatalf("corrupt_skipped = %d, want 1 (%+v)", st.CorruptSkipped, st)
			}
			// the caller recomputes and rewrites; the store heals
			s2.PutDist(k, 1234)
			s2.Close()
			s3 := openT(t, dir, Options{})
			if d, ok := s3.LookupDist(k); !ok || d != 1234 {
				t.Fatalf("healed lookup = %d, %v", d, ok)
			}
		})
	}
}

// TestKeyEchoCatchesNameCollisions: a record copied under another key's
// file name (a simulated 128-bit name collision or an aliased file) fails
// the payload echo and is skipped.
func TestKeyEchoCatchesNameCollisions(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k1, k2 := distKey(1), distKey(2)
	s.PutDist(k1, 11)
	s.Close()

	n1, n2 := distName(k1), distName(k2)
	src := filepath.Join(dir, distDir, n1[:2], n1)
	dstDir := filepath.Join(dir, distDir, n2[:2])
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
	if d, ok := s2.LookupDist(k2); ok {
		t.Fatalf("aliased record served as %d", d)
	}
	if st := s2.Stats(); st.CorruptSkipped != 1 {
		t.Fatalf("corrupt_skipped = %d, want 1", st.CorruptSkipped)
	}
}

// TestAbandonedTempFilesAreIgnored: a crash mid-flush leaves tmp-* files
// behind; they are never read as records and never corrupt lookups.
func TestAbandonedTempFilesAreIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := distKey(5)
	s.PutDist(k, 55)
	s.Close()

	name := distName(k)
	shard := filepath.Join(dir, distDir, name[:2])
	if err := os.WriteFile(filepath.Join(shard, "tmp-crashed"), []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if d, ok := s2.LookupDist(k); !ok || d != 55 {
		t.Fatalf("lookup near temp junk = %d, %v", d, ok)
	}
	if st := s2.Stats(); st.CorruptSkipped != 0 {
		t.Fatalf("temp file miscounted as corrupt: %+v", st)
	}
}

// TestClearRemovesOnlyTiers: Clear wipes both record tiers and nothing
// else under the root.
func TestClearRemovesOnlyTiers(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := distKey(3)
	s.PutDist(k, 3)
	s.PutIndex(IndexKey{App: "a", Model: "m"}, sampleDB())
	s.Close()
	bystander := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(bystander, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Clear(dir); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	if _, ok := s2.LookupDist(k); ok {
		t.Fatal("Clear left distance records")
	}
	if _, ok := s2.LookupIndex(IndexKey{App: "a", Model: "m"}); ok {
		t.Fatal("Clear left index records")
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("Clear touched bystander file: %v", err)
	}
}

// TestConcurrentPutsAndLookups drives the write-behind queue and read
// path from many goroutines (the race detector is part of tier-1).
func TestConcurrentPutsAndLookups(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{QueueSize: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := distKey(uint64(i % 10))
				s.PutDist(k, i%10)
				s.LookupDist(k)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if d, ok := s2.LookupDist(distKey(uint64(i))); !ok || d != i {
			t.Fatalf("key %d = %d, %v", i, d, ok)
		}
	}
	// Close after Close is a no-op; puts after Close are dropped safely.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.PutDist(distKey(77), 7)
}

// TestObsCountersMirrorStats: a recorder attached right after Open
// reports every store.* counter equal to the Stats field it names, summed
// over every store it adopted — here a cold store and a warm one.
func TestObsCountersMirrorStats(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	rec := obs.NewRecorder()
	s.SetRecorder(rec)
	k := distKey(1)
	s.LookupDist(k) // miss
	s.PutDist(k, 2)
	s.Close()
	s2 := openT(t, dir, Options{})
	s2.SetRecorder(rec)
	s2.LookupDist(k) // hit
	snap := rec.Snapshot()
	if snap.Counters["store.misses"] != 1 || snap.Counters["store.hits"] != 1 {
		t.Fatalf("obs counters: %+v", snap.Counters)
	}
	if snap.Counters["store.bytes_read"] == 0 {
		t.Fatalf("bytes_read counter empty: %+v", snap.Counters)
	}
	a, b := s.Stats(), s2.Stats()
	degraded := func(st Stats) int64 {
		if st.Degraded {
			return 1
		}
		return 0
	}
	for name, want := range map[string]int64{
		"store.hits":            int64(a.Hits + b.Hits),
		"store.misses":          int64(a.Misses + b.Misses),
		"store.bytes_read":      int64(a.BytesRead + b.BytesRead),
		"store.bytes_written":   int64(a.BytesWritten + b.BytesWritten),
		"store.flushes":         int64(a.Flushes + b.Flushes),
		"store.corrupt_skipped": int64(a.CorruptSkipped + b.CorruptSkipped),
		"store.io_errors":       int64(a.IOErrors + b.IOErrors),
		"store.fault_injected":  int64(a.FaultInjected + b.FaultInjected),
		"store.degraded":        degraded(a) + degraded(b),
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("recorder %s = %d (present %v), Stats say %d", name, got, ok, want)
		}
	}
}

// TestStatsString pins the fragment the post-sweep CLI line embeds.
func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, BytesRead: 10, BytesWritten: 20, Flushes: 2, CorruptSkipped: 1}
	got := s.String()
	for _, frag := range []string{"store 3 hits", "1 misses", "10B read", "20B written", "2 flushes", "1 corrupt-skipped"} {
		if !bytes.Contains([]byte(got), []byte(frag)) {
			t.Errorf("Stats.String() = %q missing %q", got, frag)
		}
	}
}

// TestTwoEnginesOneStoreInterleaving is the multi-tenant shape the serve
// daemon introduces (DESIGN.md §14): two engines — modeled as two Store
// handles over one directory, each with its own write-behind queue —
// interleave puts and lookups of the same deterministic keys. Concurrent
// puts of the same key stay keep-first: once engine A's record is
// committed, engine B's re-put of identical bytes never rewrites the
// file (ModTime pins it), every lookup from either handle serves the
// committed value, and clean concurrency never increments
// corrupt_skipped on any handle.
func TestTwoEnginesOneStoreInterleaving(t *testing.T) {
	dir := t.TempDir()
	const keys = 12
	val := func(i int) int { return i*31 + 7 }
	path := func(i int) string {
		name := distName(distKey(uint64(i)))
		return filepath.Join(dir, distDir, name[:2], name)
	}

	// Engine A commits every key first and we pin the committed records'
	// modification times — the "first" of keep-first.
	a := openT(t, dir, Options{QueueSize: 8})
	for i := 0; i < keys; i++ {
		a.PutDist(distKey(uint64(i)), val(i))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mtimes := make([]time.Time, keys)
	for i := 0; i < keys; i++ {
		fi, err := os.Stat(path(i))
		if err != nil {
			t.Fatalf("key %d never committed: %v", i, err)
		}
		mtimes[i] = fi.ModTime()
	}

	// Engines B and C now interleave: both re-put every key (the race a
	// shared daemon store sees when two tenants compute the same cell)
	// while reading back concurrently. Reads must only ever see the
	// committed value.
	b := openT(t, dir, Options{QueueSize: 8})
	c := openT(t, dir, Options{QueueSize: 8})
	var wg sync.WaitGroup
	for _, s := range []*Store{b, c} {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < keys; i++ {
					s.PutDist(distKey(uint64(i)), val(i))
					if d, ok := s.LookupDist(distKey(uint64(i))); !ok || d != val(i) {
						t.Errorf("interleaved lookup key %d = %d, %v; want %d", i, d, ok, val(i))
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep-first: engine A's records were never rewritten.
	for i := 0; i < keys; i++ {
		fi, err := os.Stat(path(i))
		if err != nil {
			t.Fatalf("key %d vanished: %v", i, err)
		}
		if !fi.ModTime().Equal(mtimes[i]) {
			t.Errorf("key %d was rewritten by a later identical put (mtime %v -> %v)",
				i, mtimes[i], fi.ModTime())
		}
	}
	for name, st := range map[string]Stats{"b": b.Stats(), "c": c.Stats()} {
		if st.CorruptSkipped != 0 {
			t.Errorf("engine %s: clean concurrency tripped corrupt_skipped: %+v", name, st)
		}
		if st.WriteErrors != 0 {
			t.Errorf("engine %s: clean concurrency hit write errors: %+v", name, st)
		}
	}

	// A fresh handle (a restarted daemon) still serves every key exactly.
	s2 := openT(t, dir, Options{})
	for i := 0; i < keys; i++ {
		if d, ok := s2.LookupDist(distKey(uint64(i))); !ok || d != val(i) {
			t.Fatalf("reopened lookup key %d = %d, %v; want %d", i, d, ok, val(i))
		}
	}
	if st := s2.Stats(); st.CorruptSkipped != 0 {
		t.Fatalf("reopened handle skipped corrupt records: %+v", st)
	}
}
