// Package store implements the persistent content-addressed artifact
// store: cross-run warm starts for the expensive products of the TBMD
// pipeline — exact TED distances and indexed codebases. The paper's own
// workflow already persists the index step as a portable Codebase DB
// (Zstd+MessagePack, package cbdb); this package generalises that idea
// into a two-tier on-disk cache addressed by content, so a repeat sweep
// (re-running figures, CI checks, per-PR metric runs) is bounded by
// decode time instead of the quadratic TED core.
//
// Layout: <root>/<tier>/<shard>/<name>, where tier is "ted" (exact
// distances) or "idx" (indexes), name is a 128-bit hash over the full
// record key (fingerprint pair + cost model + format version for
// distances; app/model/content hash + format versions for indexes) and
// shard is the name's first byte in hex — a 256-way fan-out that keeps
// directories small at millions of records.
//
// Durability model: records are immutable and written via temp-file +
// fsync + rename, so a reader never observes a partial record under its
// final name. Every Put commits on the calling goroutine before it
// returns; there is no queue and no background writer, so a record is on
// disk once its Put returns and Close has nothing to drain. Loads are
// corruption-tolerant: a truncated, bit-flipped, wrong-version, or
// colliding record fails its envelope checks or key echo and is counted
// in corrupt_skipped and treated as a miss — never a panic, never a wrong
// answer. Killing a process mid-commit therefore costs at most the record
// being written, not correctness.
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
)

// tierNames lists every tier directory in stable display order; per-tier
// byte accounting and Clear iterate it.
var tierNames = [...]string{distDir, indexDir}

// tierIndex maps a tier directory to its accounting slot.
func tierIndex(tier string) int {
	for i, t := range tierNames {
		if t == tier {
			return i
		}
	}
	return 0
}

// defaultDegradeThreshold is how many I/O errors trip the breaker when
// Options.DegradeThreshold is zero. Low enough that a dead disk stops
// costing syscalls within a handful of commits, high enough that a single
// transient EIO does not give up the warm-start tier for the whole run.
const defaultDegradeThreshold = 8

// Options configures Open.
type Options struct {
	// Readonly serves lookups but drops every Put, so shared or archived
	// cache directories can back runs without being mutated.
	Readonly bool
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

	closed atomic.Bool // set by Close; later puts are dropped

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
	corruptSkipped obs.Counter // undecodable or key-mismatched records skipped
	ioErrors       obs.Counter // failed filesystem calls
	faultInjected  obs.Counter // the subset of ioErrors faultfs scheduled
	degraded       obs.Counter // 1 once the breaker trips
}

// Open creates (or reuses) a store rooted at dir. Open itself fails hard
// on error — an unusable root is a configuration problem, not a mid-run
// fault.
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
	return &Store{
		root:      dir,
		readonly:  opts.Readonly,
		strict:    opts.Strict,
		threshold: threshold,
		fs:        fsys,
		counts:    &storeCounters{},
	}, nil
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
	CorruptSkipped uint64 // undecodable or key-mismatched records skipped
	WriteErrors    uint64 // failed record commits (records dropped)
	IOErrors       uint64 // failed filesystem calls (reads and writes)
	FaultInjected  uint64 // I/O errors scheduled by faultfs injection
	Degraded       bool   // breaker tripped: store is memory-only

	// TierBytes splits the byte totals per tier, keyed by tier directory
	// name ("ted", "idx"); every tier is present, zeros
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
// breaker only append fragments, so fault-free runs keep that shape.
func (s Stats) String() string {
	line := fmt.Sprintf("store %d hits, %d misses, %dB read, %dB written, %d corrupt-skipped",
		s.Hits, s.Misses, s.BytesRead, s.BytesWritten, s.CorruptSkipped)
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

// PutDist commits a distance record. No-op on nil, readonly, degraded, or
// closed stores.
func (s *Store) PutDist(k DistKey, d int) {
	if s.writable() {
		data, err := encodeDist(k, d)
		s.put(distDir, distName(k), data, err)
	}
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

// PutIndex commits an index record. No-op on nil, readonly, degraded, or
// closed stores.
func (s *Store) PutIndex(k IndexKey, db *cbdb.DB) {
	if s.writable() {
		data, err := encodeIndex(k, db)
		s.put(indexDir, indexName(k), data, err)
	}
}

// Close stops accepting writes: puts after it are dropped. A put that
// returned before it has already committed, so there is nothing to wait
// for. Safe to call more than once and on nil/readonly stores. Under
// Options.Strict it returns the first I/O fault the store observed, so
// fault-intolerant runs fail here.
func (s *Store) Close() error {
	if s != nil {
		s.closed.Store(true)
	}
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

// writable reports whether a put would reach disk: the store exists, is
// not readonly or closed, and the breaker has not tripped. Puts check it
// before encoding, so a dropped put costs nothing.
func (s *Store) writable() bool {
	return s != nil && !s.readonly && !s.closed.Load() && !s.Degraded()
}

// put commits one encoded record on the calling goroutine. A failed
// encode or commit drops that record only and feeds the breaker.
func (s *Store) put(tier, name string, data []byte, err error) {
	if err == nil {
		err = s.commit(tier, name, data)
	}
	if err != nil {
		s.writeErrors.Add(1)
		s.ioError(err)
	}
}

// commit writes one record crash-safely: write to a temp file in
// the destination directory, fsync, rename into place. Every failure
// path removes the temp file — including a failed Sync between write and
// rename, the leak the faultfs regression suite pins — so an erroring
// disk never accumulates orphaned tmp-* files on top of its real
// problem. Concurrent writers of the same key race benignly — the
// payloads are identical, rename is atomic, and the keep-first probe
// below drops re-puts of an already-committed record, so the first
// commit stays in place and any interleaving leaves a valid record.
func (s *Store) commit(tier, name string, data []byte) error {
	dir := filepath.Join(s.root, tier, name[:2])
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(dir, name)
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
	s.tierWritten[tierIndex(tier)].Add(uint64(len(data)))
	return nil
}
