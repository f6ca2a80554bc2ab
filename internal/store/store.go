// Package store implements the persistent content-addressed artifact
// store: cross-run warm starts for the two expensive products of the TBMD
// pipeline — exact TED distances and indexed codebases. The paper's own
// workflow already persists the index step as a portable Codebase DB
// (Zstd+MessagePack, package cbdb); this package generalises that idea
// into a two-tier on-disk cache addressed by content, so a repeat sweep
// (re-running figures, CI checks, per-PR metric runs) is bounded by decode
// time instead of the quadratic TED core.
//
// Layout: <root>/<tier>/<shard>/<name>, where tier is "ted", "idx", or
// "tier", name is a 128-bit hash over the full record key (fingerprint
// pair + cost model + format version for distances; app/model/content
// hash + format versions for indexes) and shard is the name's first
// byte in hex — a 256-way fan-out that keeps directories small at
// millions of records.
//
// Durability model: records are immutable and written via temp-file +
// fsync + rename, so a reader never observes a partial record under its
// final name. Writes go through a background flusher goroutine behind a
// bounded queue (write-behind); Close drains the queue synchronously.
// Loads are corruption-tolerant: a truncated, bit-flipped, wrong-version,
// or colliding record fails its envelope checks or key echo and is
// counted in corrupt_skipped and treated as a miss — never a panic, never
// a wrong answer. Killing a process mid-flush therefore costs at most the
// queued records, not correctness.
//
// Failure model (DESIGN.md §9): every filesystem call goes through a
// faultfs.FS, so the whole write/read path is fault-injectable. I/O
// errors are recoverable by construction — a failed read is a miss, a
// failed commit drops that record — but a store that keeps erroring is
// paying full syscall latency for nothing, so a breaker counts I/O errors
// and past Options.DegradeThreshold trips the store into memory-only
// degraded mode: lookups stop touching disk, puts are dropped, the trip
// is logged once and counted via store.degraded, and the distance numbers
// remain bit-identical to a store-less run. Options.Strict inverts the
// trade: the first I/O fault is remembered and returned by Close, so CI
// runs can fail loudly instead of degrading silently.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"

	"silvervale/internal/cbdb"
	"silvervale/internal/faultfs"
	"silvervale/internal/obs"
)

// Tier directory names under the store root.
const (
	distDir  = "ted"
	indexDir = "idx"
	tierDir  = "tier"
)

// tierNames lists every tier directory in stable display order; per-tier
// byte accounting and Clear iterate it.
var tierNames = [...]string{distDir, indexDir, tierDir}

// tierIndex maps a tier directory to its accounting slot.
func tierIndex(tier string) int {
	for i, t := range tierNames {
		if t == tier {
			return i
		}
	}
	return 0
}

// maxBatch bounds how many queued records one flush writes; with the
// queue non-empty the flusher coalesces up to this many puts into a
// single pass (one flushes increment).
const maxBatch = 256

// defaultQueue is the write-behind queue bound when Options.QueueSize is
// zero. Producers block once the queue is full — backpressure, not loss.
const defaultQueue = 1024

// defaultDegradeThreshold is how many I/O errors trip the breaker when
// Options.DegradeThreshold is zero. Low enough that a dead disk stops
// costing syscalls within one flush batch, high enough that a single
// transient EIO does not give up the warm-start tier for the whole run.
const defaultDegradeThreshold = 8

// Options configures Open.
type Options struct {
	// Readonly serves lookups but drops every Put, so shared or archived
	// cache directories can back runs without being mutated.
	Readonly bool
	// QueueSize bounds the write-behind queue (0 selects the default).
	QueueSize int
	// FS is the filesystem the store performs all I/O through. Nil
	// selects the passthrough faultfs.OS; tests inject a faultfs.FaultFS
	// to script failures and crash points.
	FS faultfs.FS
	// Strict makes I/O faults fatal instead of degrading: the first
	// fault still trips the breaker (so results stay correct), but it is
	// remembered and returned by Close/Err, failing the run.
	Strict bool
	// DegradeThreshold is how many I/O errors trip the memory-only
	// breaker (0 selects the default; Strict trips on the first).
	DegradeThreshold int
}

// pending is one queued write: the target path plus a deferred encoder,
// so payload rendering happens on the flusher goroutine, off the TED hot
// path.
type pending struct {
	tier, name string
	encode     func() ([]byte, error)
}

// Store is a persistent content-addressed artifact store. All methods are
// safe for concurrent use. A nil *Store is valid and behaves as an empty
// read-through with dropped writes, so callers can thread an optional
// store without nil checks at every site.
type Store struct {
	root      string
	readonly  bool
	strict    bool
	threshold uint64
	fs        faultfs.FS

	mu     sync.RWMutex // guards queue against Close; RLock to send
	queue  chan pending
	closed bool
	wg     sync.WaitGroup

	// counts holds the counters SetRecorder adopts under the store.*
	// names; writeErrors and the per-tier byte splits have no stable name
	// and stay private.
	counts      *storeCounters
	writeErrors atomic.Uint64

	// Per-tier splits of bytesRead/bytesWritten, indexed by tierIndex, so
	// the growth of each tier is observable from the stats line rather
	// than only from du(1).
	tierRead    [len(tierNames)]atomic.Uint64
	tierWritten [len(tierNames)]atomic.Uint64

	// Breaker: once counts.ioErrors passes the threshold (or immediately
	// under Strict) tripOnce fires, counts.degraded becomes 1, and the
	// store stops touching disk.
	tripOnce sync.Once

	errMu    sync.Mutex
	firstErr error // first I/O fault, surfaced by Err/Close under Strict
}

// storeCounters are the store's always-on traffic counters. They live in
// their own allocation so a recorder that adopted them never keeps a
// closed store alive.
type storeCounters struct {
	hits           obs.Counter // lookups answered from disk
	misses         obs.Counter // lookups with no (usable) record
	bytesRead      obs.Counter // compressed bytes read by hits and skips
	bytesWritten   obs.Counter // compressed bytes committed to disk
	flushes        obs.Counter // write-behind batches flushed
	corruptSkipped obs.Counter // undecodable or key-mismatched records skipped
	ioErrors       obs.Counter // failed filesystem calls
	faultInjected  obs.Counter // the subset of ioErrors faultfs scheduled
	degraded       obs.Counter // 1 once the breaker trips
}

// Open creates (or reuses) a store rooted at dir and starts the flusher
// unless the store is readonly. Open itself fails hard on error — an
// unusable root is a configuration problem, not a mid-run fault.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	threshold := uint64(opts.DegradeThreshold)
	if threshold == 0 {
		threshold = defaultDegradeThreshold
	}
	s := &Store{
		root:      dir,
		readonly:  opts.Readonly,
		strict:    opts.Strict,
		threshold: threshold,
		fs:        fsys,
		counts:    &storeCounters{},
	}
	if !opts.Readonly {
		n := opts.QueueSize
		if n <= 0 {
			n = defaultQueue
		}
		s.queue = make(chan pending, n)
		s.wg.Add(1)
		go s.flusher()
	}
	return s, nil
}

// Clear removes every record tier under dir. Only the store's own
// directories are touched; anything else under dir survives.
func Clear(dir string) error { return ClearFS(faultfs.OS{}, dir) }

// ClearFS is Clear over an explicit filesystem.
func ClearFS(fsys faultfs.FS, dir string) error {
	for _, tier := range tierNames {
		if err := fsys.RemoveAll(filepath.Join(dir, tier)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Root returns the store's root directory.
func (s *Store) Root() string {
	if s == nil {
		return ""
	}
	return s.root
}

// Readonly reports whether puts are dropped.
func (s *Store) Readonly() bool { return s != nil && s.readonly }

// Degraded reports whether the I/O-error breaker has tripped the store
// into memory-only mode (lookups miss without touching disk, puts are
// dropped). Results are unaffected — callers recompute exactly as they
// would on a cold cache.
func (s *Store) Degraded() bool { return s != nil && s.counts.degraded.Value() != 0 }

// Err returns the first I/O fault a Strict store observed (nil
// otherwise, and always nil for non-strict stores).
func (s *Store) Err() error {
	if s == nil || !s.strict {
		return nil
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// SetRecorder hands the store's traffic counters to an observability
// recorder under the store.* names (DESIGN.md §5). Adopted counts cover
// the store's whole lifetime; attach right after Open.
func (s *Store) SetRecorder(rec *obs.Recorder) {
	if s == nil {
		return
	}
	k := s.counts
	for name, c := range map[string]*obs.Counter{
		"store.hits":            &k.hits,
		"store.misses":          &k.misses,
		"store.bytes_read":      &k.bytesRead,
		"store.bytes_written":   &k.bytesWritten,
		"store.flushes":         &k.flushes,
		"store.corrupt_skipped": &k.corruptSkipped,
		"store.io_errors":       &k.ioErrors,
		"store.degraded":        &k.degraded,
		"store.fault_injected":  &k.faultInjected,
	} {
		rec.Adopt(name, c)
	}
}

// TierIO is one tier's on-disk traffic this run. Written approximates the
// tier's on-disk growth (records are immutable; same-key rewrites are
// rare, identical-payload races).
type TierIO struct {
	Read    uint64 // compressed bytes read
	Written uint64 // compressed bytes committed
}

// Stats is a point-in-time snapshot of store traffic.
type Stats struct {
	Hits           uint64 // lookups answered from disk
	Misses         uint64 // lookups with no (usable) record
	BytesRead      uint64 // compressed bytes read by hits and skips
	BytesWritten   uint64 // compressed bytes committed to disk
	Flushes        uint64 // write-behind batches flushed
	CorruptSkipped uint64 // undecodable or key-mismatched records skipped
	WriteErrors    uint64 // failed record commits (records dropped)
	IOErrors       uint64 // failed filesystem calls (reads and writes)
	FaultInjected  uint64 // I/O errors scheduled by faultfs injection
	Degraded       bool   // breaker tripped: store is memory-only

	// TierBytes splits the byte totals per tier, keyed by tier directory
	// name ("ted", "idx", "tier"); every tier is present, zeros
	// included, so callers can index without existence checks.
	TierBytes map[string]TierIO
}

// Stats returns current counters. A nil store returns zeros (with a nil
// TierBytes map).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	tiers := make(map[string]TierIO, len(tierNames))
	for i, name := range tierNames {
		tiers[name] = TierIO{Read: s.tierRead[i].Load(), Written: s.tierWritten[i].Load()}
	}
	k := s.counts
	v := func(n *obs.Counter) uint64 { return uint64(n.Value()) }
	return Stats{
		Hits:           v(&k.hits),
		Misses:         v(&k.misses),
		BytesRead:      v(&k.bytesRead),
		BytesWritten:   v(&k.bytesWritten),
		Flushes:        v(&k.flushes),
		CorruptSkipped: v(&k.corruptSkipped),
		WriteErrors:    s.writeErrors.Load(),
		IOErrors:       v(&k.ioErrors),
		FaultInjected:  v(&k.faultInjected),
		Degraded:       k.degraded.Value() != 0,
		TierBytes:      tiers,
	}
}

// String renders the snapshot as the store fragment of the post-sweep
// cache-stats line. The base shape is stable; fault traffic and the
// breaker only append fragments, so fault-free runs print exactly the
// historical line.
func (s Stats) String() string {
	line := fmt.Sprintf("store %d hits, %d misses, %dB read, %dB written, %d flushes, %d corrupt-skipped",
		s.Hits, s.Misses, s.BytesRead, s.BytesWritten, s.Flushes, s.CorruptSkipped)
	for _, name := range tierNames {
		if io := s.TierBytes[name]; io.Read != 0 || io.Written != 0 {
			line += fmt.Sprintf(", %s tier %dB written/%dB read", name, io.Written, io.Read)
		}
	}
	if s.FaultInjected > 0 {
		line += fmt.Sprintf(", %d faults injected", s.FaultInjected)
	}
	if s.Degraded {
		line += ", DEGRADED (memory-only)"
	}
	return line
}

// LookupDist returns the stored distance for a canonical key, if a valid
// record exists.
func (s *Store) LookupDist(k DistKey) (int, bool) {
	if s == nil {
		return 0, false
	}
	data, ok := s.load(distDir, distName(k))
	if !ok {
		return 0, false
	}
	d, err := decodeDist(data, k)
	if err != nil {
		s.skipCorrupt()
		return 0, false
	}
	s.hit()
	return d, true
}

// PutDist queues a distance record for write-behind. No-op on nil,
// readonly, degraded, or closed stores.
func (s *Store) PutDist(k DistKey, d int) {
	if s == nil {
		return
	}
	s.put(pending{
		tier: distDir, name: distName(k),
		encode: func() ([]byte, error) { return encodeDist(k, d) },
	})
}

// LookupTierDist returns the stored tiered-distance estimate for a key,
// if a valid record exists. A record written for another pair or routing
// tier hashes to a different name and can never be served here; a
// corrupted or colliding record fails its key echo and is counted in
// corrupt_skipped, surfacing as a miss.
func (s *Store) LookupTierDist(k TierKey) (float64, bool) {
	if s == nil {
		return 0, false
	}
	data, ok := s.load(tierDir, tierName(k))
	if !ok {
		return 0, false
	}
	d, err := decodeTier(data, k)
	if err != nil {
		s.skipCorrupt()
		return 0, false
	}
	s.hit()
	return d, true
}

// PutTierDist queues a tiered-distance record for write-behind. No-op on
// nil, readonly, degraded, or closed stores.
func (s *Store) PutTierDist(k TierKey, d float64) {
	if s == nil {
		return
	}
	s.put(pending{
		tier: tierDir, name: tierName(k),
		encode: func() ([]byte, error) { return encodeTier(k, d) },
	})
}

// LookupIndex returns the stored codebase DB for a key, if a valid record
// exists.
func (s *Store) LookupIndex(k IndexKey) (*cbdb.DB, bool) {
	if s == nil {
		return nil, false
	}
	data, ok := s.load(indexDir, indexName(k))
	if !ok {
		return nil, false
	}
	db, err := decodeIndex(data, k)
	if err != nil {
		s.skipCorrupt()
		return nil, false
	}
	s.hit()
	return db, true
}

// PutIndex queues an index record for write-behind. The DB must not be
// mutated afterwards (core.Index.ToDB builds a fresh one).
func (s *Store) PutIndex(k IndexKey, db *cbdb.DB) {
	if s == nil {
		return
	}
	s.put(pending{
		tier: indexDir, name: indexName(k),
		encode: func() ([]byte, error) { return encodeIndex(k, db) },
	})
}

// Close stops accepting writes, drains the queue synchronously, and waits
// for the flusher to commit every pending record. Safe to call more than
// once and on nil/readonly stores. Under Options.Strict it returns the
// first I/O fault the store observed, so fault-intolerant runs fail here.
func (s *Store) Close() error {
	if s == nil || s.readonly {
		return s.Err()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Err()
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	return s.Err()
}

// load reads one record file. A missing file is a plain miss; a read
// error feeds the breaker and surfaces as a miss. A degraded store never
// touches disk.
func (s *Store) load(tier, name string) ([]byte, bool) {
	if s.Degraded() {
		s.miss()
		return nil, false
	}
	path := filepath.Join(s.root, tier, name[:2], name)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.ioError(err)
		}
		s.miss()
		return nil, false
	}
	s.counts.bytesRead.Add(int64(len(data)))
	s.tierRead[tierIndex(tier)].Add(uint64(len(data)))
	return data, true
}

// hit records one successful lookup.
func (s *Store) hit() { s.counts.hits.Add(1) }

// miss records one lookup with no usable record.
func (s *Store) miss() { s.counts.misses.Add(1) }

// skipCorrupt records one record rejected by decode or key echo. The
// lookup surfaces as a miss so the caller recomputes (and rewrites) it.
func (s *Store) skipCorrupt() {
	s.counts.corruptSkipped.Add(1)
	s.miss()
}

// ioError feeds the breaker with one failed filesystem call. Under
// Strict the first fault is remembered (for Err/Close) and trips the
// breaker immediately; otherwise the breaker trips once the error count
// passes the threshold.
func (s *Store) ioError(err error) {
	if faultfs.IsInjected(err) {
		s.counts.faultInjected.Add(1)
	}
	s.counts.ioErrors.Add(1)
	if s.strict {
		s.errMu.Lock()
		if s.firstErr == nil {
			s.firstErr = err
		}
		s.errMu.Unlock()
		s.trip(err)
		return
	}
	if uint64(s.counts.ioErrors.Value()) >= s.threshold {
		s.trip(err)
	}
}

// trip flips the store into memory-only degraded mode: exactly once per
// store, logged once, counted once (store.degraded). Correctness is
// untouched — every lookup from here on is a miss and the caller
// recomputes, so a degraded sweep stays bit-identical to a cold one.
func (s *Store) trip(err error) {
	s.tripOnce.Do(func() {
		s.counts.degraded.Add(1)
		log.Printf("store: degraded to memory-only after %d I/O error(s): %v (results unaffected; writes dropped)",
			s.counts.ioErrors.Value(), err)
	})
}

// put enqueues one record for the flusher, blocking when the queue is
// full (backpressure). The RLock pairs with Close's Lock so a concurrent
// Close never closes the channel under an in-flight send.
func (s *Store) put(p pending) {
	if s.readonly || s.Degraded() {
		return
	}
	s.mu.RLock()
	if !s.closed {
		s.queue <- p
	}
	s.mu.RUnlock()
}

// flusher drains the queue in batches until Close. Each pass coalesces up
// to maxBatch pending records and commits them one temp-file+rename at a
// time; a failed commit drops that record only.
func (s *Store) flusher() {
	defer s.wg.Done()
	for p := range s.queue {
		batch := []pending{p}
	coalesce:
		for len(batch) < maxBatch {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, q)
			default:
				break coalesce
			}
		}
		s.writeBatch(batch)
	}
}

// writeBatch commits a batch of records and counts one flush. Once the
// breaker has tripped, remaining records are dropped without touching
// disk (each failed syscall already cost latency and fed the breaker).
func (s *Store) writeBatch(batch []pending) {
	for _, p := range batch {
		if s.Degraded() {
			s.writeErrors.Add(1)
			continue
		}
		if err := s.commit(p); err != nil {
			s.writeErrors.Add(1)
			s.ioError(err)
		}
	}
	s.counts.flushes.Add(1)
}

// commit writes one record crash-safely: encode, write to a temp file in
// the destination directory, fsync, rename into place. Every failure
// path removes the temp file — including a failed Sync between write and
// rename, the leak the faultfs regression suite pins — so an erroring
// disk never accumulates orphaned tmp-* files on top of its real
// problem. Concurrent writers of the same key race benignly — the
// payloads are identical, rename is atomic, and the keep-first probe
// below drops re-puts of an already-committed record, so the first
// commit stays in place and any interleaving leaves a valid record.
func (s *Store) commit(p pending) error {
	data, err := p.encode()
	if err != nil {
		return err
	}
	dir := filepath.Join(s.root, p.tier, p.name[:2])
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(dir, p.name)
	// Keep-first: engines sharing one store race benignly on a key —
	// payloads are deterministic, so when the destination already holds
	// exactly the bytes this put would write, the first committed record
	// stays in place untouched (no rewrite churn under multi-tenant
	// interleaving). A divergent or damaged record fails the comparison
	// and is rewritten — the heal path the crash replay pins. A probe
	// failure (missing file, injected read fault) just means "write it".
	if prev, err := s.fs.ReadFile(dst); err == nil && bytes.Equal(prev, data) {
		return nil
	}
	tmp, err := s.fs.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	if err := s.fs.Rename(tmp.Name(), dst); err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	s.counts.bytesWritten.Add(int64(len(data)))
	s.tierWritten[tierIndex(p.tier)].Add(uint64(len(data)))
	return nil
}
