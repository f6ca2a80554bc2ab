package ted

import (
	"fmt"
	"sync"
	"sync/atomic"

	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// Cache is a concurrency-safe, content-addressed memo for tree edit
// distances. Entries are keyed by (Fingerprint(a), Fingerprint(b), Costs),
// so the cache is shared safely across codebases, metrics, and goroutines:
// any two structurally identical trees hit the same entry no matter where
// they came from. Each tree's pq-gram profile is memoised under the same
// addressing scheme; a pq-gram distance is a linear merge of two memoised
// profiles and is not memoised itself.
//
// Identical-tree pairs short-circuit to distance 0 without running
// Zhang–Shasha at all: on fingerprint equality the trees are verified with
// tree.Equal (O(n), negligible next to the O(n^2+) distance computation),
// so the shortcut is exact, not probabilistic. Distinct-pair hits rely on
// fingerprint uniqueness, which does not hold in general: labels are fed
// to the hashes without a length prefix, so distinct trees can be built
// that collide, and a colliding pair would be served the other pair's
// distance. No colliding pair of corpus trees is known. The fix changes
// fingerprint bytes the benchmark's golden digests pin, so it waits on
// the next change to the benchmark (see tree.Fingerprint).
//
// Alongside the distance memo the cache keeps a per-tree flat memo: the
// post-order labels/lmld/keyroot arrays Zhang–Shasha consumes, addressed
// by the same content fingerprint. A matrix sweep over k codebases
// compares every tree against O(k) others but flattens and interns it
// exactly once; distance misses borrow the memoised flats and only the DP
// itself runs per pair. Memoised flats are immutable and shared across
// goroutines; they live as long as the cache (see DESIGN.md §6).
//
// The zero value is not usable; call NewCache.
type Cache struct {
	mu       sync.RWMutex
	dist     map[pairKey]int
	flats    map[tree.Fingerprint]*flat
	mirrors  map[tree.Fingerprint]*flat // mirrored flats, keyed by the unmirrored tree's fingerprint
	profiles map[tree.Fingerprint]PQGramProfile

	// ids interns the memo keys below: subtree fingerprints and prefix
	// folds of installed flats, and cost models (DESIGN.md §13).
	ids *memoIDs

	// Subtree-block memo (DESIGN.md §13): treedist outputs per keyroot
	// pair, content-addressed by interned subtree pair + cost model, under
	// their own lock so grid probes never contend with distance lookups.
	subMu    sync.RWMutex
	subs     map[subKey]subBlock
	subBytes int64 // accounted payload + overhead, guarded by subMu
	subMax   int64 // eviction bound in bytes
	subMin   int   // memoisation threshold in DP cells (m1*m2)

	// Forest-prefix checkpoint memo (DESIGN.md §13): root-keyroot-row DP
	// rows captured at root-children boundaries, shared under subMu with
	// the block memo but accounted and bounded separately.
	ckpts     map[ckptKey]string
	ckptBytes int64 // guarded by subMu
	ckptMax   int64 // eviction bound in bytes

	// pathMin is the path strategy's threshold (DESIGN.md §13): a root
	// child's sub-DP runs mirrored only when that is predicted to save at
	// least this many DP cells.
	pathMin int64

	// counts holds the always-on event counters behind Stats; SetRecorder
	// adopts them, so each event is counted exactly once.
	counts *cacheCounters

	// obs holds the opt-in observability handles (nil when disabled); an
	// atomic pointer so SetRecorder is safe against in-flight lookups.
	obs atomic.Pointer[cacheObs]

	// backing is the optional persistent artifact store (nil when absent);
	// an atomic pointer so SetStore is safe against in-flight lookups.
	// Memory misses consult it before computing, disk hits are promoted
	// into the in-memory memo, and fresh results are committed to it
	// (see DESIGN.md §7).
	backing atomic.Pointer[store.Store]
}

// cacheCounters are the cache's always-on event counters. They live in
// their own allocation so a recorder that adopted them never keeps a
// dropped cache alive.
type cacheCounters struct {
	hits        obs.Counter // lookups answered from the memo or the identity shortcut
	misses      obs.Counter // lookups that ran the underlying algorithm
	identity    obs.Counter // hits answered by the identical-tree short-circuit
	symmetric   obs.Counter // lookups canonicalised to the unordered pair
	boundPruned obs.Counter // misses answered by a bound gate
	flatHits    obs.Counter // flattened trees served from the flat memo
	flatMisses  obs.Counter // trees flattened for the first time
	subHits     obs.Counter // keyroot blocks served from the subtree memo
	subMisses   obs.Counter // memoisable keyroot blocks not served
	subEvicted  obs.Counter // blocks dropped by the byte bound
	ckptHits    obs.Counter // root-row DPs resumed from a checkpoint
	ckptMisses  obs.Counter // root-row misses with no usable checkpoint
	ckptEvicted obs.Counter // checkpoint rows dropped by the byte bound
	dpCells     obs.Counter // forest-distance cells computed by the DP
	twinBlocks  obs.Counter // keyroot-pair blocks copied from a twin pair in the same DP
	subdpLeft   obs.Counter // root-child sub-DPs run in left-path orientation
	subdpMirror obs.Counter // root-child sub-DPs run on mirrored trees
	approxCalls obs.Counter // pq-gram distance lookups
}

// cacheObs caches the recorder plus the opt-in counters/histograms the hot
// path touches, resolved once in SetRecorder.
type cacheObs struct {
	rec       *obs.Recorder
	calls     *obs.Counter   // ted.calls — exact-TED lookups
	pairNodes *obs.Histogram // ted.pair_nodes — size bucket per call
}

// pairKey addresses one exact-TED evaluation. When Insert == Delete the
// distance is symmetric and the key is canonicalised so (a,b) and (b,a)
// share an entry.
type pairKey struct {
	a, b  tree.Fingerprint
	costs Costs
}

// NewCache returns an empty cache ready for concurrent use. The subtree-
// block memo starts enabled with its default threshold and bound.
func NewCache() *Cache {
	c := &Cache{
		dist:     map[pairKey]int{},
		flats:    map[tree.Fingerprint]*flat{},
		mirrors:  map[tree.Fingerprint]*flat{},
		profiles: map[tree.Fingerprint]PQGramProfile{},
		ids:      newMemoIDs(),
		subs:     map[subKey]subBlock{},
		subMax:   subDefaultMaxBytes,
		subMin:   subDefaultMinCells,
		ckpts:    map[ckptKey]string{},
		ckptMax:  ckptDefaultMaxBytes,
		pathMin:  pathDefaultMinSaving,
		counts:   &cacheCounters{},
	}
	return c
}

// SetRecorder attaches an observability recorder. It adopts the cache's
// always-on counters ("ted.cache.*", "ted.flat_memo.*", "ted.bound_pruned",
// the subtree and checkpoint memo counters, "ted.dp_cells",
// "ted.twin_blocks",
// "ted.subdp_*" and "ted.approx.calls"), whose counts cover the cache's
// whole lifetime, and turns on the opt-in instruments: the "ted.calls"
// counter, the "ted.pair_nodes" size histogram, and — on misses —
// "ted.fingerprint" / "ted.distance" spans. Attach once, at construction;
// a nil recorder is ignored.
func (c *Cache) SetRecorder(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	k := c.counts
	for name, n := range map[string]*obs.Counter{
		"ted.cache.hits":             &k.hits,
		"ted.cache.misses":           &k.misses,
		"ted.cache.identity":         &k.identity,
		"ted.cache.symmetric":        &k.symmetric,
		"ted.bound_pruned":           &k.boundPruned,
		"ted.flat_memo.hits":         &k.flatHits,
		"ted.flat_memo.misses":       &k.flatMisses,
		"ted.subtree_blocks_hit":     &k.subHits,
		"ted.subtree_blocks_miss":    &k.subMisses,
		"ted.subtree_blocks_evicted": &k.subEvicted,
		"ted.ckpt_rows_hit":          &k.ckptHits,
		"ted.ckpt_rows_miss":         &k.ckptMisses,
		"ted.ckpt_rows_evicted":      &k.ckptEvicted,
		"ted.dp_cells":               &k.dpCells,
		"ted.twin_blocks":            &k.twinBlocks,
		"ted.subdp_left":             &k.subdpLeft,
		"ted.subdp_mirrored":         &k.subdpMirror,
		"ted.approx.calls":           &k.approxCalls,
	} {
		rec.Adopt(name, n)
	}
	c.obs.Store(&cacheObs{
		rec:       rec,
		calls:     rec.Counter("ted.calls"),
		pairNodes: rec.Histogram("ted.pair_nodes"),
	})
}

// SubtreeBlockCounters returns the cache's subtree-block hit and miss
// counters, the sub-cell reuse split an engine reports as its own.
func (c *Cache) SubtreeBlockCounters() (hits, misses *obs.Counter) {
	return &c.counts.subHits, &c.counts.subMisses
}

// SetStore attaches a persistent backing store: memory misses consult it
// before running the DP, disk hits are promoted into the in-memory memo,
// and fresh distances are committed to it. A nil store detaches (the
// default); the caller retains ownership and closes the store itself.
//
// The cache needs no fault handling of its own: a store that has degraded
// to memory-only (see store.Store.Degraded and DESIGN.md §9) answers every
// lookup with a miss and drops every put, so the cache transparently falls
// back to computing — distances are unaffected, only warm starts are lost.
func (c *Cache) SetStore(s *store.Store) {
	c.backing.Store(s)
}

// Store returns the attached backing store (nil when absent).
func (c *Cache) Store() *store.Store { return c.backing.Load() }

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits        uint64 // lookups answered from the memo or the identity shortcut
	Misses      uint64 // lookups that ran the underlying algorithm
	Identity    uint64 // hits answered by the identical-tree short-circuit
	Symmetric   uint64 // lookups whose key was canonicalised to the unordered pair
	BoundPruned uint64 // misses answered by an exact bound gate, skipping the DP
	FlatHits    uint64 // flattened-tree lookups served from the flat memo
	FlatMisses  uint64 // trees flattened and interned for the first time
	Entries     int    // stored exact distances
	Profiles    int    // stored pq-gram profiles
	Flats       int    // stored flattened trees

	// Subtree-block memo traffic (DESIGN.md §13). Hits and misses count
	// memoisable keyroot pairs only — pairs below the size threshold
	// always recompute and are invisible here. A hit means the block was
	// served from the memo; its cells materialise into the DP tables
	// lazily, only when a recomputed neighbour actually reads them.
	SubtreeHits    uint64 // keyroot blocks served instead of recomputed
	SubtreeMisses  uint64 // memoisable keyroot blocks not served by the memo
	SubtreeEvicted uint64 // blocks dropped by the byte bound
	SubtreeBlocks  int    // blocks currently resident
	SubtreeBytes   int64  // accounted resident size (payload + overhead)

	// Forest-prefix checkpoint traffic (DESIGN.md §13). A checkpoint hit
	// resumes one root-keyroot-row DP from a memoised forest-prefix row
	// instead of re-running it from row zero; misses count root-row block
	// misses that found no usable checkpoint and paid the full row.
	CheckpointHits    uint64 // root-row DPs resumed mid-row
	CheckpointMisses  uint64 // root-row block misses with no checkpoint
	CheckpointEvicted uint64 // checkpoint rows dropped by the byte bound
	CheckpointRows    int    // checkpoint rows currently resident
	CheckpointBytes   int64  // accounted resident size (payload + overhead)

	// ProbeRowHits and ProbeRowBytes are always zero. The probe-row memo
	// they counted is gone (DESIGN.md §13); the fields stay only because
	// the benchmark module still reads them.
	ProbeRowHits  uint64
	ProbeRowBytes int64

	// StoreEnabled marks the persistent tier attached; Store then carries
	// its traffic counters (zero-valued otherwise, so the no-store path is
	// unchanged).
	StoreEnabled bool
	Store        store.Stats
}

// Stats returns current counters. Hits include identity short-circuits.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	entries, profiles, flats := len(c.dist), len(c.profiles), len(c.flats)
	c.mu.RUnlock()
	c.subMu.RLock()
	subBlocks, subBytes := len(c.subs), c.subBytes
	ckptRows, ckptBytes := len(c.ckpts), c.ckptBytes
	c.subMu.RUnlock()
	k := c.counts
	v := func(n *obs.Counter) uint64 { return uint64(n.Value()) }
	st := CacheStats{
		Hits:           v(&k.hits),
		Misses:         v(&k.misses),
		Identity:       v(&k.identity),
		Symmetric:      v(&k.symmetric),
		BoundPruned:    v(&k.boundPruned),
		FlatHits:       v(&k.flatHits),
		FlatMisses:     v(&k.flatMisses),
		Entries:        entries,
		Profiles:       profiles,
		Flats:          flats,
		SubtreeHits:    v(&k.subHits),
		SubtreeMisses:  v(&k.subMisses),
		SubtreeEvicted: v(&k.subEvicted),
		SubtreeBlocks:  subBlocks,
		SubtreeBytes:   subBytes,

		CheckpointHits:    v(&k.ckptHits),
		CheckpointMisses:  v(&k.ckptMisses),
		CheckpointEvicted: v(&k.ckptEvicted),
		CheckpointRows:    ckptRows,
		CheckpointBytes:   ckptBytes,
	}
	if s := c.backing.Load(); s != nil {
		st.StoreEnabled = true
		st.Store = s.Stats()
	}
	return st
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// FlatHitRate returns the flat-memo hit ratio, or 0 before any flatten.
func (s CacheStats) FlatHitRate() float64 {
	total := s.FlatHits + s.FlatMisses
	if total == 0 {
		return 0
	}
	return float64(s.FlatHits) / float64(total)
}

// String renders the snapshot as the one-line summary the CLI prints after
// experiment sweeps. The historical prefix is stable; the subtree-memo
// fragment (and, with a persistent store attached, the store tier's
// traffic) appends after it.
func (s CacheStats) String() string {
	line := fmt.Sprintf(
		"ted cache: %d hits (%d identity), %d misses, %d symmetric canonicalisations, %d entries, %d profiles, hit rate %.1f%%, %d bound-pruned, flat memo %d/%d hit rate %.1f%%",
		s.Hits, s.Identity, s.Misses, s.Symmetric, s.Entries, s.Profiles, 100*s.HitRate(),
		s.BoundPruned, s.FlatHits, s.FlatHits+s.FlatMisses, 100*s.FlatHitRate())
	line += fmt.Sprintf(", subtree blocks %d hit/%d miss, %d resident (%dB), %d evicted",
		s.SubtreeHits, s.SubtreeMisses, s.SubtreeBlocks, s.SubtreeBytes, s.SubtreeEvicted)
	line += fmt.Sprintf(", ckpt rows %d hit/%d miss, %d resident (%dB), %d evicted",
		s.CheckpointHits, s.CheckpointMisses, s.CheckpointRows, s.CheckpointBytes, s.CheckpointEvicted)
	if s.StoreEnabled {
		line += ", " + s.Store.String()
	}
	return line
}

// Distance is the cached form of Distance (unit costs).
func (c *Cache) Distance(t1, t2 *tree.Node) int {
	return c.DistanceWithCosts(t1, t2, UnitCosts())
}

// DistanceWithCosts is the cached form of DistanceWithCosts. Results are
// always identical to the uncached function.
func (c *Cache) DistanceWithCosts(t1, t2 *tree.Node, costs Costs) int {
	var fa, fb tree.Fingerprint
	if o := c.obs.Load(); o != nil {
		fsp := o.rec.Start("ted.fingerprint")
		fa, fb = t1.Fingerprint(), t2.Fingerprint()
		fsp.End()
	} else {
		fa, fb = t1.Fingerprint(), t2.Fingerprint()
	}
	return c.DistanceFP(t1, t2, fa, fb, costs)
}

// DistanceFP is DistanceWithCosts for callers that already hold both
// trees' fingerprints (fa = t1.Fingerprint(), fb = t2.Fingerprint()), such
// as the engine, which records every unit tree's fingerprint at index
// time: a memo hit then costs no tree walk at all.
func (c *Cache) DistanceFP(t1, t2 *tree.Node, fa, fb tree.Fingerprint, costs Costs) int {
	o := c.obs.Load()
	if o != nil {
		o.calls.Add(1)
		o.pairNodes.Observe(int64(fa.Size) + int64(fb.Size))
	}
	if fa == fb && tree.Equal(t1, t2) {
		// d(t, t) == 0 under every cost model: the empty edit script.
		c.counts.hits.Add(1)
		c.counts.identity.Add(1)
		return 0
	}
	key := pairKey{a: fa, b: fb, costs: costs}
	if costs.Insert == costs.Delete && fb.Less(fa) {
		key.a, key.b = fb, fa
		c.counts.symmetric.Add(1)
	}
	c.mu.RLock()
	d, ok := c.dist[key]
	c.mu.RUnlock()
	if ok {
		c.counts.hits.Add(1)
		return d
	}
	c.counts.misses.Add(1)
	st := c.backing.Load()
	var dk store.DistKey
	if st != nil {
		// The pair is already canonicalised, so both orientations of a
		// symmetric pair resolve to the same on-disk record.
		dk = store.DistKey{A: key.a, B: key.b,
			Insert: costs.Insert, Delete: costs.Delete, Rename: costs.Rename}
		if pd, ok := st.LookupDist(dk); ok {
			c.mu.Lock()
			c.dist[key] = pd
			c.mu.Unlock()
			return pd
		}
	}
	if o != nil {
		dsp := o.rec.Start("ted.distance")
		d = c.compute(t1, t2, fa, fb, costs)
		dsp.End()
	} else {
		d = c.compute(t1, t2, fa, fb, costs)
	}
	c.mu.Lock()
	c.dist[key] = d
	c.mu.Unlock()
	if st != nil {
		st.PutDist(dk, d)
	}
	return d
}

// compute evaluates one cache miss: memoised flats, then the bound gates,
// then — only when no gate fires — the pooled Zhang–Shasha DP. Results are
// identical to the package-level DistanceWithCosts by construction (same
// gates, same kernel) and by the equivalence property test.
func (c *Cache) compute(t1, t2 *tree.Node, fa, fb tree.Fingerprint, costs Costs) int {
	if t1 == nil {
		return t2.Size() * costs.Insert
	}
	if t2 == nil {
		return t1.Size() * costs.Delete
	}
	a := c.flatFor(t1, fa)
	b := c.flatFor(t2, fb)
	sc := getScratch()
	d, pruned := boundGate(a, b, costs, sc)
	if pruned {
		c.counts.boundPruned.Add(1)
	} else {
		d = c.zsDistanceMemo(a, b, costs, sc, t1, t2)
	}
	putScratch(sc)
	return d
}

// flatFor returns the memoised flattened form of t, building it on first
// sight of the fingerprint. Two goroutines racing on the same new tree may
// both build; the store keeps the first and both results are identical, so
// the loser's copy is just garbage.
func (c *Cache) flatFor(t *tree.Node, fp tree.Fingerprint) *flat {
	c.mu.RLock()
	f, ok := c.flats[fp]
	c.mu.RUnlock()
	if ok {
		c.counts.flatHits.Add(1)
		return f
	}
	c.counts.flatMisses.Add(1)
	f = newFlat(t, c.ids)
	c.mu.Lock()
	if prior, ok := c.flats[fp]; ok {
		f = prior
	} else {
		c.flats[fp] = f
	}
	c.mu.Unlock()
	return f
}

// mirrorFlat returns the memoised flat of t's mirror image, building it on
// first sight of fp, t's own fingerprint. The mirrored flat carries the
// interned fingerprints of the mirrored subtrees, so the blocks keyed on
// them stay content-addressed.
// Racing builders keep the first, like flatFor.
func (c *Cache) mirrorFlat(t *tree.Node, fp tree.Fingerprint) *flat {
	c.mu.RLock()
	f, ok := c.mirrors[fp]
	c.mu.RUnlock()
	if ok {
		return f
	}
	f = newMirrorFlat(mirrorTree(t), c.ids)
	c.mu.Lock()
	if prior, ok := c.mirrors[fp]; ok {
		f = prior
	} else {
		c.mirrors[fp] = f
	}
	c.mu.Unlock()
	return f
}

// ApproxDistance is the cached form of ApproxDistance: the pq-gram
// distance over the memoised profiles of both trees. It touches neither
// the hit/miss counters nor the distance memo, which account exact TED
// only.
func (c *Cache) ApproxDistance(t1, t2 *tree.Node) float64 {
	c.counts.approxCalls.Add(1)
	return PQGramDistance(c.profileFor(t1), c.profileFor(t2))
}

// profileFor returns the memoised pq-gram profile of t, building it on
// first sight. Racing builders keep the first, like flatFor.
func (c *Cache) profileFor(t *tree.Node) PQGramProfile {
	fp := t.Fingerprint()
	c.mu.RLock()
	p, ok := c.profiles[fp]
	c.mu.RUnlock()
	if ok {
		return p
	}
	p = NewPQGramProfile(t)
	c.mu.Lock()
	if prior, ok := c.profiles[fp]; ok {
		p = prior
	} else {
		c.profiles[fp] = p
	}
	c.mu.Unlock()
	return p
}
