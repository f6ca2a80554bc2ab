package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"silvervale/internal/cbdb"
	"silvervale/internal/msgpack"
	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// SnapshotVersion guards the snapshot wire format; bump on any schema
// change so stale files are rejected instead of misread. Version 2 added
// the subtree-block section (DESIGN.md §13); version 3 keys cells on the
// screen bit alone and records every cell's provenance; version 4 carries
// unit source hashes under store.FormatVersion 2's prefix-free hashing;
// version 5 drops the screen bit and the provenance counts with the
// screening engine (DESIGN.md §10).
const SnapshotVersion = 5

// Snapshot is the warm state a watch session (or a CI baseline run)
// persists so a later `-since` invocation can resume incrementally: every
// model's indexed codebase DB, the engine's memoised matrix cells, and
// the TED cache's subtree-block memo — the layer that keeps a post-edit
// `-since` sweep at warm-edit latency rather than cold-TED latency.
// Restoring one costs a file read; everything else is content-addressed,
// so a restored snapshot never serves stale data — edits simply miss.
type Snapshot struct {
	Metric string
	Models map[string]*cbdb.DB
	Cells  []CellRecord
	Subs   []ted.SubtreeBlockRecord
}

// CellRecord is the portable form of one memoised matrix cell: the two
// sides' metric hashes, the metric and the value (both normalised
// orientations). Floats travel as IEEE-754 bit patterns, so a restored
// cell is bit-identical to the one exported.
type CellRecord struct {
	A, B      [2]uint64
	Metric    string
	Norm, Rev float64
}

// ExportCells returns the engine's memoised matrix cells in a canonical
// deterministic order (key-sorted), ready for Snapshot persistence.
func (e *Engine) ExportCells() []CellRecord {
	e.cellMu.Lock()
	recs := make([]CellRecord, 0, len(e.cellMemo))
	for k, v := range e.cellMemo {
		recs = append(recs, CellRecord{
			A: [2]uint64{k.a.H1, k.a.H2}, B: [2]uint64{k.b.H1, k.b.H2},
			Metric: k.metric,
			Norm:   v.norm, Rev: v.rev,
		})
	}
	e.cellMu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.A != b.A {
			return a.A[0] < b.A[0] || (a.A[0] == b.A[0] && a.A[1] < b.A[1])
		}
		if a.B != b.B {
			return a.B[0] < b.B[0] || (a.B[0] == b.B[0] && a.B[1] < b.B[1])
		}
		return a.Metric < b.Metric
	})
	return recs
}

// ImportCells seeds the engine's cell memo from exported records.
func (e *Engine) ImportCells(recs []CellRecord) {
	e.cellMu.Lock()
	for _, r := range recs {
		k := cellKey{
			a:      store.ContentHash{H1: r.A[0], H2: r.A[1]},
			b:      store.ContentHash{H1: r.B[0], H2: r.B[1]},
			metric: r.Metric,
		}
		e.cellMemo[k] = cellVal{norm: r.Norm, rev: r.Rev}
	}
	e.cellMu.Unlock()
}

// ExportSubtreeBlocks snapshots the shared cache's subtree-block memo in
// deterministic order.
func (e *Engine) ExportSubtreeBlocks() []ted.SubtreeBlockRecord {
	return e.cache.ExportSubtreeBlocks()
}

// ImportSubtreeBlocks seeds the shared cache's subtree-block memo from
// exported records.
func (e *Engine) ImportSubtreeBlocks(recs []ted.SubtreeBlockRecord) {
	e.cache.ImportSubtreeBlocks(recs)
}

// Write serialises the snapshot as gzip-compressed MessagePack, the same
// framing as cbdb files.
func (s *Snapshot) Write(w io.Writer) error {
	models := make(map[string]any, len(s.Models))
	for name, db := range s.Models {
		var buf bytes.Buffer
		if err := db.EncodeMsgpack(&buf); err != nil {
			return err
		}
		models[name] = buf.Bytes()
	}
	cells := make([]any, len(s.Cells))
	for i, c := range s.Cells {
		cells[i] = []any{
			c.A[0], c.A[1], c.B[0], c.B[1],
			c.Metric,
			math.Float64bits(c.Norm), math.Float64bits(c.Rev),
		}
	}
	subs := make([]any, len(s.Subs))
	for i, r := range s.Subs {
		blk := make([]byte, 4*len(r.Vals))
		for j, v := range r.Vals {
			binary.LittleEndian.PutUint32(blk[4*j:], uint32(v))
		}
		subs[i] = []any{
			r.A.H1, r.A.H2, uint64(r.A.Size),
			r.B.H1, r.B.H2, uint64(r.B.Size),
			int64(r.Costs.Insert), int64(r.Costs.Delete), int64(r.Costs.Rename),
			int64(r.L1), int64(r.L2),
			blk,
		}
	}
	payload := map[string]any{
		"version": int64(SnapshotVersion),
		"metric":  s.Metric,
		"models":  models,
		"cells":   cells,
		"subs":    subs,
	}
	gz := gzip.NewWriter(w)
	if err := msgpack.NewEncoder(gz).Encode(payload); err != nil {
		return err
	}
	return gz.Close()
}

// ReadSnapshot deserialises a snapshot written by Write.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	defer gz.Close()
	v, err := msgpack.NewDecoder(gz).Decode()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: not a map payload")
	}
	if ver, ok := m["version"].(int64); !ok || ver != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot: unsupported version %v (want %d)", m["version"], SnapshotVersion)
	}
	s := &Snapshot{Models: map[string]*cbdb.DB{}}
	s.Metric, _ = m["metric"].(string)
	rawModels, _ := m["models"].(map[string]any)
	for name, blob := range rawModels {
		data, ok := blob.([]byte)
		if !ok {
			return nil, fmt.Errorf("core: snapshot: model %q is not a DB blob", name)
		}
		db, err := cbdb.DecodeMsgpack(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: model %q: %w", name, err)
		}
		s.Models[name] = db
	}
	rawCells, _ := m["cells"].([]any)
	for i, rc := range rawCells {
		parts, ok := rc.([]any)
		if !ok || len(parts) != 7 {
			return nil, fmt.Errorf("core: snapshot: malformed cell %d", i)
		}
		u := make([]uint64, len(parts))
		for j, p := range parts {
			switch x := p.(type) {
			case int64:
				u[j] = uint64(x)
			case uint64:
				u[j] = x
			}
		}
		metric, _ := parts[4].(string)
		s.Cells = append(s.Cells, CellRecord{
			A: [2]uint64{u[0], u[1]}, B: [2]uint64{u[2], u[3]},
			Metric: metric,
			Norm:   math.Float64frombits(u[5]), Rev: math.Float64frombits(u[6]),
		})
	}
	rawSubs, _ := m["subs"].([]any)
	for i, rs := range rawSubs {
		parts, ok := rs.([]any)
		if !ok || len(parts) != 12 {
			return nil, fmt.Errorf("core: snapshot: malformed subtree block %d", i)
		}
		u := make([]uint64, len(parts))
		for j, p := range parts {
			switch x := p.(type) {
			case int64:
				u[j] = uint64(x)
			case uint64:
				u[j] = x
			}
		}
		blk, ok := parts[11].([]byte)
		l1, l2 := int64(u[9]), int64(u[10])
		if !ok || l1 <= 0 || l2 <= 0 || len(blk)%4 != 0 || l1*l2 != int64(len(blk)/4) {
			return nil, fmt.Errorf("core: snapshot: malformed subtree block %d", i)
		}
		vals := make([]int32, l1*l2)
		for j := range vals {
			vals[j] = int32(binary.LittleEndian.Uint32(blk[4*j:]))
		}
		s.Subs = append(s.Subs, ted.SubtreeBlockRecord{
			A:     tree.Fingerprint{H1: u[0], H2: u[1], Size: uint32(u[2])},
			B:     tree.Fingerprint{H1: u[3], H2: u[4], Size: uint32(u[5])},
			Costs: ted.Costs{Insert: int(u[6]), Delete: int(u[7]), Rename: int(u[8])},
			L1:    int32(l1), L2: int32(l2), Vals: vals,
		})
	}
	return s, nil
}

// Save writes the snapshot atomically: temp file in the target directory,
// fsync-free rename into place, so a crashed writer never leaves a
// half-written snapshot where a `-since` run would find it.
func (s *Snapshot) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	if err := s.Write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshot reads a snapshot file written by Save.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
