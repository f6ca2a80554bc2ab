package ted

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/tree"
)

func storeParse(t *testing.T, s string) *tree.Node {
	t.Helper()
	n, err := tree.ParseSexpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCacheStoreReadThroughWriteBehind exercises the full persistent
// round trip: a cold cache computes and commits a record; after Close, a
// completely fresh cache over the same directory answers from disk
// without running the DP, and promotes the hit into its memo so the store
// is consulted exactly once per pair.
func TestCacheStoreReadThroughWriteBehind(t *testing.T) {
	dir := t.TempDir()
	t1 := storeParse(t, "(a (b (c) (d)) (e (f)))")
	t2 := storeParse(t, "(a (b (c)) (g (f) (h)))")

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	if got := c.Store(); got != st {
		t.Fatal("Store() does not return the attached store")
	}
	want := c.Distance(t1, t2)
	if want == 0 {
		t.Fatal("test trees should differ")
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("cold run: want 0 hits / 1 miss, got %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2 := NewCache()
	c2.SetStore(st2)
	if got := c2.Distance(t1, t2); got != want {
		t.Fatalf("warm distance %d, cold %d", got, want)
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Fatalf("warm run: want 1 store hit, got %+v", s)
	}
	// The disk hit was promoted into the memo, and the swapped orientation
	// canonicalises onto the same memo key: both answer from memory, so
	// the store is consulted exactly once for the pair.
	if got := c2.Distance(t2, t1); got != want {
		t.Fatalf("swapped warm distance %d, cold %d", got, want)
	}
	if got := c2.Distance(t1, t2); got != want {
		t.Fatalf("repeat distance %d, cold %d", got, want)
	}
	stats := c2.Stats()
	if !stats.StoreEnabled {
		t.Fatal("CacheStats.StoreEnabled should be set")
	}
	if stats.Store.Hits != 1 {
		t.Fatalf("want 1 store hit after repeats, got %+v", stats.Store)
	}
	if stats.Hits != 2 { // the promoted repeats
		t.Fatalf("want 2 memo hits after repeats, got %+v", stats)
	}
	if !strings.Contains(stats.String(), "store 1 hits") {
		t.Fatalf("stats line missing store fragment: %q", stats.String())
	}
}

// TestCacheWithoutStoreOmitsFragment pins the no-store stats line: the
// CLI's existing post-sweep output must not change when -cache-dir is
// absent.
func TestCacheWithoutStoreOmitsFragment(t *testing.T) {
	c := NewCache()
	s := c.Stats()
	if s.StoreEnabled {
		t.Fatal("StoreEnabled without a store")
	}
	if strings.Contains(s.String(), "store") {
		t.Fatalf("store fragment leaked into store-less line: %q", s.String())
	}
}

// TestCacheReadonlyStoreServesWithoutWriting covers the shared-cache-dir
// mode: lookups are answered, puts are dropped, and distances still match.
func TestCacheReadonlyStoreServesWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	t1 := storeParse(t, "(x (y) (z))")
	t2 := storeParse(t, "(x (y (w)))")

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	want := c.Distance(t1, t2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := store.Open(dir, store.Options{Readonly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	c2 := NewCache()
	c2.SetStore(ro)
	if got := c2.Distance(t1, t2); got != want {
		t.Fatalf("readonly warm distance %d, want %d", got, want)
	}
	if s := ro.Stats(); s.Hits != 1 || s.BytesWritten != 0 {
		t.Fatalf("readonly store wrote or missed: %+v", s)
	}
}

// TestRecorderDoesNotPinModules: a recorder that adopted a cache's and a
// store's counters keeps only those counters — once the cache is dropped
// and the store closed, both are collected, and their counts live on.
func TestRecorderDoesNotPinModules(t *testing.T) {
	rec := obs.NewRecorder()
	var cacheGone, storeGone atomic.Bool
	func() {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.SetRecorder(rec)
		c := NewCache()
		c.SetRecorder(rec)
		c.SetStore(st)
		c.Distance(storeParse(t, "(a (b) (c))"), storeParse(t, "(a (d))"))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(c, func(*Cache) { cacheGone.Store(true) })
		runtime.SetFinalizer(st, func(*store.Store) { storeGone.Store(true) })
	}()
	for i := 0; i < 100 && !(cacheGone.Load() && storeGone.Load()); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !cacheGone.Load() || !storeGone.Load() {
		t.Fatalf("recorder kept dropped modules alive: cache collected %v, store collected %v",
			cacheGone.Load(), storeGone.Load())
	}
	got := rec.Snapshot().Counters
	if got["ted.cache.misses"] != 1 || got["store.misses"] != 1 {
		t.Fatalf("adopted counts lost with their modules: %v", got)
	}
}
