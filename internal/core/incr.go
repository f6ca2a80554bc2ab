package core

import (
	"context"
	"fmt"

	"silvervale/internal/corpus"
	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// Incremental recomputation (DESIGN.md §12). A one-line edit to one port
// used to re-run the whole pipeline: every unit reparsed, every matrix
// cell recomputed. This file derives the dirty set instead, at two
// granularities:
//
//   - frontend: IndexCodebaseIncremental reuses parsed units from a prior
//     Index whenever the unit's recomputed source hash (root file, spliced
//     include closure, system flags, missing-include absences) matches the
//     one recorded at index time — only edited units re-run MiniC or
//     MiniFortran;
//   - matrix cells: the engine memoises every divergence cell under
//     (per-side metric hash, metric, screen bit), so a warm
//     re-sweep recomputes exactly the cells whose fingerprint pair changed
//     and serves the rest from the memo, bit-identically.
//
// Both layers are content-addressed: nothing is invalidated by time or
// edit events, stale entries simply become unreachable, exactly like the
// ted.Cache distance memo.

// optsDigestVersion is mixed into Options.Digest; bump it if the digest
// schema changes so old persisted digests stop matching.
const optsDigestVersion = 1

// Digest returns the content digest of the options that affect indexing
// output: the system-header handling and the full coverage mask. Workers
// and Recorder are scheduling concerns — the result is identical for every
// value, so they are deliberately excluded. Index records in the
// persistent store and incremental reuse both key on this digest, which is
// what lets coverage-masked and ablation runs warm-start without ever
// cross-contaminating the default configuration.
func (o Options) Digest() store.ContentHash {
	h := store.NewHasher()
	h.WriteUint64(optsDigestVersion)
	if o.KeepSystemHeaders {
		h.WriteUint64(1)
	} else {
		h.WriteUint64(0)
	}
	if o.Coverage == nil || o.Coverage.Mask == nil {
		h.WriteUint64(0)
		return h.Sum()
	}
	h.WriteUint64(1)
	o.Coverage.Mask.ForEach(func(file string, line int, live bool) {
		h.WriteString(file)
		h.WriteUint64(uint64(int64(line)))
		if live {
			h.WriteUint64(1)
		} else {
			h.WriteUint64(0)
		}
	})
	return h.Sum()
}

// linesHash content-addresses an ordered normalised line set.
func linesHash(lines []string) store.ContentHash {
	h := store.NewHasher()
	h.WriteUint64(uint64(len(lines)))
	for _, l := range lines {
		h.WriteString(l)
	}
	return h.Sum()
}

// unitSrcHash recomputes the frontend-reuse key for one unit against a
// file set: the language, root file, role, and — for every dependency in
// recorded order — its name, presence, content, and system flag, plus the
// continued absence of every missing include. Hashing presence bits means
// a deleted dependency or a newly-appearing include target changes the
// hash, forcing a reparse.
func unitSrcHash(cb *corpus.Codebase, file, role string, deps, missing []string) store.ContentHash {
	h := store.NewHasher()
	h.WriteString(string(cb.Lang))
	h.WriteString(file)
	h.WriteString(role)
	h.WriteUint64(uint64(len(deps)))
	for _, d := range deps {
		h.WriteString(d)
		content, ok := cb.Files[d]
		if ok {
			h.WriteUint64(1)
		} else {
			h.WriteUint64(0)
		}
		h.WriteString(content)
		if cb.System[d] {
			h.WriteUint64(1)
		} else {
			h.WriteUint64(0)
		}
	}
	h.WriteUint64(uint64(len(missing)))
	for _, d := range missing {
		h.WriteString(d)
		if _, ok := cb.Files[d]; ok {
			h.WriteUint64(1)
		} else {
			h.WriteUint64(0)
		}
	}
	return h.Sum()
}

// finalizeUnit fills the incremental-recomputation keys of a freshly
// indexed unit: the source hash over its recorded dependency set and the
// content addresses of its trees and line sets. Runs after coverage
// masking, so the fingerprints address exactly what divergence consumes.
func finalizeUnit(cb *corpus.Codebase, ui *UnitIndex) {
	ui.SrcHash = unitSrcHash(cb, ui.File, ui.Role, ui.Deps, ui.MissingDeps)
	ui.FPs = make(map[string]tree.Fingerprint, len(ui.Trees))
	for m, t := range ui.Trees {
		ui.FPs[m] = t.Fingerprint()
	}
	ui.LinesHash = linesHash(ui.SourceLines)
	ui.LinesPPHash = linesHash(ui.SourceLinesPP)
}

// IncrStats counts what an incremental operation reused versus redid.
// Engine methods accumulate the same counts engine-lifetime (Engine.
// IncrStats), in counters the recorder adopts as incr.*.
type IncrStats struct {
	UnitsReused     int // parsed units served from the prior index
	UnitsReparsed   int // units re-run through the frontend
	CellsReused     int // matrix cells served from the cell memo
	CellsRecomputed int // matrix cells recomputed

	// Sub-cell accounting (DESIGN.md §13): within the recomputed cells,
	// how many keyroot subtree-distance blocks the TED layer restored
	// from the subtree memo versus re-ran the DP for. On a one-function
	// edit the recomputed count tracks the edited function's spine;
	// everything else is reused.
	SubtreeBlocksReused     int
	SubtreeBlocksRecomputed int
}

// Line renders the per-iteration stats line the watch loop prints.
func (s IncrStats) Line() string {
	return fmt.Sprintf("incremental: %d cells reused, %d recomputed; %d units reused, %d reparsed; %d subtree blocks reused, %d recomputed",
		s.CellsReused, s.CellsRecomputed, s.UnitsReused, s.UnitsReparsed,
		s.SubtreeBlocksReused, s.SubtreeBlocksRecomputed)
}

func (s *IncrStats) add(o IncrStats) {
	s.UnitsReused += o.UnitsReused
	s.UnitsReparsed += o.UnitsReparsed
	s.CellsReused += o.CellsReused
	s.CellsRecomputed += o.CellsRecomputed
	s.SubtreeBlocksReused += o.SubtreeBlocksReused
	s.SubtreeBlocksRecomputed += o.SubtreeBlocksRecomputed
}

// IndexCodebaseIncremental indexes cb, reusing parsed units from a prior
// Index of the same codebase wherever the unit's recomputed source hash
// matches the recorded one. Unmatched (edited, added, renamed, or
// dependency-touched) units re-run the full frontend on the Options.Workers
// pool. The result is always identical to IndexCodebase(cb, opts): reuse
// is keyed purely by content, and a prior index built under different
// options (or for a different app/model/language) disqualifies itself
// entirely. A nil prior degrades to the cold path.
func IndexCodebaseIncremental(cb *corpus.Codebase, prior *Index, opts Options) (*Index, IncrStats, error) {
	return IndexCodebaseIncrementalCtx(context.Background(), cb, prior, opts)
}

// IndexCodebaseIncrementalCtx is IndexCodebaseIncremental under a
// cancellation context: the dirty-unit reparse pool checks ctx at every
// task grant and a canceled run returns ctx.Err() with no partial Index.
func IndexCodebaseIncrementalCtx(ctx context.Context, cb *corpus.Codebase, prior *Index, opts Options) (*Index, IncrStats, error) {
	var st IncrStats
	od := opts.Digest()
	if prior == nil || prior.Codebase != cb.App || prior.Model != string(cb.Model) ||
		prior.Lang != cb.Lang || prior.Opts != od {
		idx, err := IndexCodebaseCtx(ctx, cb, opts)
		if idx != nil {
			st.UnitsReparsed = len(idx.Units)
		}
		return idx, st, err
	}
	byFile := make(map[string]*UnitIndex, len(prior.Units))
	for i := range prior.Units {
		byFile[prior.Units[i].File] = &prior.Units[i]
	}
	idx := &Index{Codebase: cb.App, Model: string(cb.Model), Lang: cb.Lang, Opts: od}
	idx.Units = make([]UnitIndex, len(cb.Units))
	var dirty []int
	for i, u := range cb.Units {
		pu := byFile[u.File]
		if pu != nil && pu.Role == u.Role && pu.SrcHash != (store.ContentHash{}) &&
			unitSrcHash(cb, u.File, u.Role, pu.Deps, pu.MissingDeps) == pu.SrcHash {
			// Clean: the unit is a pure function of its dependency
			// closure, which is byte-identical — share the parsed form
			// (trees are immutable once indexed).
			idx.Units[i] = *pu
			st.UnitsReused++
			continue
		}
		dirty = append(dirty, i)
	}
	st.UnitsReparsed = len(dirty)
	root := opts.Recorder.Start("incr.index").
		Arg("app", cb.App).Arg("model", string(cb.Model))
	idx, err := indexUnits(ctx, cb, opts, idx, root, dirty)
	return idx, st, err
}

// IndexCodebaseIncremental is the engine form: the engine's worker pool
// and recorder, plus the engine-lifetime incr.* accounting.
func (e *Engine) IndexCodebaseIncremental(cb *corpus.Codebase, prior *Index, opts Options) (*Index, IncrStats, error) {
	opts.Workers = e.workers
	if opts.Recorder == nil {
		opts.Recorder = e.rec
	}
	idx, st, err := IndexCodebaseIncremental(cb, prior, opts)
	k := e.counts
	// Adopted on first use, so runs that never index incrementally keep
	// the counter set they always had.
	e.rec.Adopt("incr.units_reused", &k.unitsReused)
	e.rec.Adopt("incr.units_reparsed", &k.unitsReparsed)
	k.unitsReused.Add(int64(st.UnitsReused))
	k.unitsReparsed.Add(int64(st.UnitsReparsed))
	return idx, st, err
}

// MetricHash content-addresses everything one side of a matrix cell
// contributes under a metric: the ordered units' roles plus each unit's
// metric-relevant content — tree fingerprint for tree metrics, line-set
// hash for the Source variants, the counts themselves for SLOC/LLOC. Two
// indexes hash equal exactly when every divergence involving them computes
// identically under the metric (including dmax and the reverse
// normalisation Weight), which makes the pair of MetricHashes a sound
// matrix-cell key.
func MetricHash(idx *Index, metric string) store.ContentHash {
	h := store.NewHasher()
	h.WriteString(metric)
	h.WriteUint64(uint64(len(idx.Units)))
	for i := range idx.Units {
		u := &idx.Units[i]
		h.WriteString(u.Role)
		switch metric {
		case MetricSLOC:
			h.WriteUint64(uint64(int64(u.SLOC)))
		case MetricLLOC:
			h.WriteUint64(uint64(int64(u.LLOC)))
		case MetricSource:
			ch := u.sourceHash(false)
			h.WriteUint64(ch.H1)
			h.WriteUint64(ch.H2)
		case MetricSourcePP:
			ch := u.sourceHash(true)
			h.WriteUint64(ch.H1)
			h.WriteUint64(ch.H2)
		default:
			fp := u.TreeFingerprint(metric)
			h.WriteUint64(fp.H1)
			h.WriteUint64(fp.H2)
			h.WriteUint64(uint64(fp.Size))
		}
	}
	return h.Sum()
}

// cellKey addresses one memoised matrix cell: the two sides' metric
// hashes (orientation preserved — the reverse normalisation differs), the
// metric, and whether the sweep screens (a tier policy at or above
// ted.ScreeningBudget on a tree metric; every screening budget routes
// identically). Everything that can change a cell's value is in the key,
// so a memo hit is bit-identical to recomputation by construction.
type cellKey struct {
	a, b   store.ContentHash
	metric string
	screen bool
}

// cellVal is one memoised cell: both normalised orientations plus the
// tier provenance recorded when the cell was computed.
type cellVal struct {
	norm, rev float64
	tc        TierCell
}

// cellLookup consults the engine's cell memo.
func (e *Engine) cellLookup(k cellKey) (cellVal, bool) {
	e.cellMu.Lock()
	v, ok := e.cellMemo[k]
	e.cellMu.Unlock()
	return v, ok
}

// cellStore records a freshly computed cell.
func (e *Engine) cellStore(k cellKey, v cellVal) {
	e.cellMu.Lock()
	e.cellMemo[k] = v
	e.cellMu.Unlock()
}

// countCells folds one sweep's reuse split into the engine's counts.
func (e *Engine) countCells(reused, recomputed int) {
	e.counts.cellsReused.Add(int64(reused))
	e.counts.cellsRecomputed.Add(int64(recomputed))
}

// IncrStats returns the engine's cumulative incremental accounting: cells
// reused/recomputed across every Matrix and MatrixTiered call, units
// reused/reparsed across every IndexCodebaseIncremental call, and the
// subtree blocks the engine's cache reused/recomputed. The watch loop
// diffs two snapshots to render its per-iteration stats line.
func (e *Engine) IncrStats() IncrStats {
	k := e.counts
	return IncrStats{
		UnitsReused:             int(k.unitsReused.Value()),
		UnitsReparsed:           int(k.unitsReparsed.Value()),
		CellsReused:             int(k.cellsReused.Value()),
		CellsRecomputed:         int(k.cellsRecomputed.Value()),
		SubtreeBlocksReused:     int(e.subReused.Value()),
		SubtreeBlocksRecomputed: int(e.subRecomputed.Value()),
	}
}

// Delta returns the per-iteration difference s - prev.
func (s IncrStats) Delta(prev IncrStats) IncrStats {
	return IncrStats{
		UnitsReused:             s.UnitsReused - prev.UnitsReused,
		UnitsReparsed:           s.UnitsReparsed - prev.UnitsReparsed,
		CellsReused:             s.CellsReused - prev.CellsReused,
		CellsRecomputed:         s.CellsRecomputed - prev.CellsRecomputed,
		SubtreeBlocksReused:     s.SubtreeBlocksReused - prev.SubtreeBlocksReused,
		SubtreeBlocksRecomputed: s.SubtreeBlocksRecomputed - prev.SubtreeBlocksRecomputed,
	}
}
