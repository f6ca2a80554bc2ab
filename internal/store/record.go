package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"

	"silvervale/internal/cbdb"
	"silvervale/internal/msgpack"
	"silvervale/internal/tree"
)

// FormatVersion is mixed into every record's on-disk key and echoed inside
// every record payload. Bump it whenever the record schema or the meaning
// of a stored value changes incompatibly (a TED cost-model semantics
// change, a key derivation change): old records stop resolving and the
// store refills cleanly instead of serving stale answers. Index records
// additionally mix in cbdb.FormatVersion, so a Codebase-DB schema bump
// invalidates the index tier on its own.
const FormatVersion = 1

// Record kinds, one per store tier.
const (
	kindDist  = "ted"  // exact TED distance for one canonical tree pair
	kindIndex = "idx"  // indexed codebase in cbdb encoding
	kindTier  = "tier" // tiered (estimated) distance under one tier policy
)

// DistKey addresses one exact tree-edit distance: the canonical fingerprint
// pair plus the cost model. Callers must canonicalise symmetric pairs the
// same way ted.Cache does (A before B under Fingerprint.Less when
// Insert == Delete) so both orientations resolve to one record.
type DistKey struct {
	A, B                   tree.Fingerprint
	Insert, Delete, Rename int
}

// TierKey addresses one tiered (estimated) distance: the canonical
// fingerprint pair (A before B under Fingerprint.Less) and which routing
// tier fired. The screening settings and the unit cost model are fixed,
// so nothing else can change an estimate. Exact and tiered records live
// in different store tiers under different kinds, so a warm start can
// never serve an exact run an estimate.
type TierKey struct {
	A, B tree.Fingerprint
	Tier uint8
}

// ContentHash is a 128-bit content address over arbitrary input bytes,
// built from the same pair of independent 64-bit hashes tree.Fingerprint
// uses.
type ContentHash struct {
	H1, H2 uint64
}

// IndexKey addresses one indexed codebase: the app/model pair plus a
// content hash over everything that determines the index (sources, unit
// roots, system flags) and a digest of the indexing options (coverage
// mask, system-header handling). A regenerated corpus with changed
// content hashes to a different key, so warm starts can never serve an
// index for sources that no longer match — and two option sets (say a
// default run and a coverage-masked ablation of the same sources) key to
// different records, so they can each warm-start without ever
// cross-contaminating.
type IndexKey struct {
	App, Model string
	Content    ContentHash
	Opts       ContentHash
}

// Hasher accumulates the double 64-bit hash behind ContentHash and record
// file names. The zero value is not usable; call NewHasher.
type Hasher struct {
	h1, h2 uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	djbOffset64 = 5381
)

// NewHasher returns a Hasher at its initial state.
func NewHasher() *Hasher {
	return &Hasher{h1: fnvOffset64, h2: djbOffset64}
}

// writeByte feeds one byte into both hashes.
func (h *Hasher) writeByte(b byte) {
	h.h1 = (h.h1 ^ uint64(b)) * fnvPrime64
	h.h2 = h.h2*33 + uint64(b)
}

// WriteString feeds a string followed by a terminator, so concatenations
// of different splits hash differently.
func (h *Hasher) WriteString(s string) {
	for i := 0; i < len(s); i++ {
		h.writeByte(s[i])
	}
	h.writeByte(0)
}

// WriteUint64 feeds a fixed-width big-endian integer.
func (h *Hasher) WriteUint64(v uint64) {
	for shift := 56; shift >= 0; shift -= 8 {
		h.writeByte(byte(v >> shift))
	}
}

// Sum returns the accumulated content hash.
func (h *Hasher) Sum() ContentHash {
	return ContentHash{H1: h.h1, H2: h.h2}
}

// distName derives the record file name for a distance key. The name is a
// 128-bit hash of every key component plus the format version; a hash
// collision is caught by the key echo inside the payload, which loadDist
// verifies field by field.
func distName(k DistKey) string {
	h := NewHasher()
	h.WriteUint64(FormatVersion)
	h.WriteString(kindDist)
	h.WriteUint64(k.A.H1)
	h.WriteUint64(k.A.H2)
	h.WriteUint64(uint64(k.A.Size))
	h.WriteUint64(k.B.H1)
	h.WriteUint64(k.B.H2)
	h.WriteUint64(uint64(k.B.Size))
	h.WriteUint64(uint64(k.Insert))
	h.WriteUint64(uint64(k.Delete))
	h.WriteUint64(uint64(k.Rename))
	s := h.Sum()
	return fmt.Sprintf("%016x%016x", s.H1, s.H2)
}

// tierName derives the record file name for a tiered-distance key.
func tierName(k TierKey) string {
	h := NewHasher()
	h.WriteUint64(FormatVersion)
	h.WriteString(kindTier)
	h.WriteUint64(k.A.H1)
	h.WriteUint64(k.A.H2)
	h.WriteUint64(uint64(k.A.Size))
	h.WriteUint64(k.B.H1)
	h.WriteUint64(k.B.H2)
	h.WriteUint64(uint64(k.B.Size))
	h.WriteUint64(uint64(k.Tier))
	s := h.Sum()
	return fmt.Sprintf("%016x%016x", s.H1, s.H2)
}

// indexName derives the record file name for an index key.
func indexName(k IndexKey) string {
	h := NewHasher()
	h.WriteUint64(FormatVersion)
	h.WriteUint64(cbdb.FormatVersion)
	h.WriteString(kindIndex)
	h.WriteString(k.App)
	h.WriteString(k.Model)
	h.WriteUint64(k.Content.H1)
	h.WriteUint64(k.Content.H2)
	h.WriteUint64(k.Opts.H1)
	h.WriteUint64(k.Opts.H2)
	s := h.Sum()
	return fmt.Sprintf("%016x%016x", s.H1, s.H2)
}

// encodeDist renders a distance record: gzip over a msgpack map that
// echoes the full key (version, kind, fingerprints, costs) alongside the
// distance. The echo is what makes loads collision- and corruption-proof:
// a record is only trusted when every field matches the key being looked
// up.
func encodeDist(k DistKey, d int) ([]byte, error) {
	payload := map[string]any{
		"v":    int64(FormatVersion),
		"kind": kindDist,
		"a1":   k.A.H1, "a2": k.A.H2, "as": int64(k.A.Size),
		"b1": k.B.H1, "b2": k.B.H2, "bs": int64(k.B.Size),
		"ci": int64(k.Insert), "cd": int64(k.Delete), "cr": int64(k.Rename),
		"d": int64(d),
	}
	return encodeEnvelope(payload)
}

// decodeDist parses and verifies a distance record against the key it was
// looked up under. Any decode failure or field mismatch returns an error;
// callers treat every error as a skip, never a wrong answer.
func decodeDist(data []byte, k DistKey) (int, error) {
	m, err := decodeEnvelope(data, kindDist)
	if err != nil {
		return 0, err
	}
	ok := matchU64(m["a1"], k.A.H1) && matchU64(m["a2"], k.A.H2) &&
		matchU64(m["as"], uint64(k.A.Size)) &&
		matchU64(m["b1"], k.B.H1) && matchU64(m["b2"], k.B.H2) &&
		matchU64(m["bs"], uint64(k.B.Size)) &&
		matchU64(m["ci"], uint64(k.Insert)) &&
		matchU64(m["cd"], uint64(k.Delete)) &&
		matchU64(m["cr"], uint64(k.Rename))
	if !ok {
		return 0, fmt.Errorf("store: distance record key mismatch")
	}
	d, ok := m["d"].(int64)
	if !ok {
		return 0, fmt.Errorf("store: distance record has no distance")
	}
	return int(d), nil
}

// encodeTier renders a tiered-distance record: the full key echo —
// fingerprints and routing tier — alongside the estimate (as IEEE-754
// bits, so the round trip is exact).
func encodeTier(k TierKey, d float64) ([]byte, error) {
	payload := map[string]any{
		"v":    int64(FormatVersion),
		"kind": kindTier,
		"a1":   k.A.H1, "a2": k.A.H2, "as": int64(k.A.Size),
		"b1": k.B.H1, "b2": k.B.H2, "bs": int64(k.B.Size),
		"tr": int64(k.Tier),
		"d":  math.Float64bits(d),
	}
	return encodeEnvelope(payload)
}

// decodeTier parses and verifies a tiered-distance record against the key
// it was looked up under. As with distances, any decode failure or field
// mismatch is an error the caller counts as corrupt-skipped, never a
// wrong answer.
func decodeTier(data []byte, k TierKey) (float64, error) {
	m, err := decodeEnvelope(data, kindTier)
	if err != nil {
		return 0, err
	}
	ok := matchU64(m["a1"], k.A.H1) && matchU64(m["a2"], k.A.H2) &&
		matchU64(m["as"], uint64(k.A.Size)) &&
		matchU64(m["b1"], k.B.H1) && matchU64(m["b2"], k.B.H2) &&
		matchU64(m["bs"], uint64(k.B.Size)) &&
		matchU64(m["tr"], uint64(k.Tier))
	if !ok {
		return 0, fmt.Errorf("store: tier record key mismatch")
	}
	bits, ok := asU64(m["d"])
	if !ok {
		return 0, fmt.Errorf("store: tier record has no distance")
	}
	return math.Float64frombits(bits), nil
}

// encodeIndex renders an index record: the key echo plus the codebase DB
// in its raw cbdb MessagePack form, all inside one gzip envelope (the
// bytes are compressed exactly once).
func encodeIndex(k IndexKey, db *cbdb.DB) ([]byte, error) {
	var inner bytes.Buffer
	if err := db.EncodeMsgpack(&inner); err != nil {
		return nil, err
	}
	payload := map[string]any{
		"v":    int64(FormatVersion),
		"kind": kindIndex,
		"app":  k.App, "model": k.Model,
		"c1": k.Content.H1, "c2": k.Content.H2,
		"o1": k.Opts.H1, "o2": k.Opts.H2,
		"db": inner.Bytes(),
	}
	return encodeEnvelope(payload)
}

// decodeIndex parses and verifies an index record against its key.
func decodeIndex(data []byte, k IndexKey) (*cbdb.DB, error) {
	m, err := decodeEnvelope(data, kindIndex)
	if err != nil {
		return nil, err
	}
	app, _ := m["app"].(string)
	model, _ := m["model"].(string)
	if app != k.App || model != k.Model ||
		!matchU64(m["c1"], k.Content.H1) || !matchU64(m["c2"], k.Content.H2) ||
		!matchU64(m["o1"], k.Opts.H1) || !matchU64(m["o2"], k.Opts.H2) {
		return nil, fmt.Errorf("store: index record key mismatch")
	}
	blob, ok := m["db"].([]byte)
	if !ok {
		return nil, fmt.Errorf("store: index record has no codebase DB")
	}
	return cbdb.DecodeMsgpack(bytes.NewReader(blob))
}

// encodeEnvelope gzips one msgpack map.
func encodeEnvelope(payload map[string]any) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := msgpack.NewEncoder(gz).Encode(payload); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeEnvelope reverses encodeEnvelope and checks version and kind. It
// must be total over arbitrary bytes: every malformed input yields an
// error (FuzzStoreRecord enforces the no-panic property).
func decodeEnvelope(data []byte, kind string) (map[string]any, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer gz.Close()
	v, err := msgpack.NewDecoder(gz).Decode()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("store: record payload is %T, not a map", v)
	}
	if ver, _ := m["v"].(int64); ver != FormatVersion {
		return nil, fmt.Errorf("store: record version %v, want %d", m["v"], FormatVersion)
	}
	if got, _ := m["kind"].(string); got != kind {
		return nil, fmt.Errorf("store: record kind %q, want %q", m["kind"], kind)
	}
	return m, nil
}

// matchU64 reports whether a decoded msgpack integer equals want. The
// decoder returns int64 for values within int64 range and uint64 beyond
// it, so both arrivals are accepted.
func matchU64(v any, want uint64) bool {
	got, ok := asU64(v)
	return ok && got == want
}

// asU64 widens a decoded msgpack integer to its uint64 bit pattern.
func asU64(v any) (uint64, bool) {
	switch x := v.(type) {
	case int64:
		return uint64(x), true
	case uint64:
		return x, true
	}
	return 0, false
}
