package core

import (
	"context"
	"fmt"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// Incremental recomputation (DESIGN.md §12). A one-line edit to one port
// used to re-run the whole pipeline: every unit reparsed, every matrix
// cell recomputed. This file derives the dirty set instead, at two
// granularities:
//
//   - frontend: Engine.IndexCodebaseIncremental reuses parsed units from
//     the engine's unit memo or a prior Index whenever the unit's
//     recomputed source hash (root file, spliced include closure, system
//     flags, missing-include absences) matches the one recorded at index
//     time — only edited units re-run MiniC or MiniFortran;
//   - matrix cells: the engine memoises every divergence cell under
//     (per-side metric hash, metric), so a warm
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
// They are the only fingerprints the engine's TED calls use, so the
// "ted.fingerprint" span is taken here, under the unit's span.
func finalizeUnit(cb *corpus.Codebase, ui *UnitIndex, usp *obs.Span) {
	ui.SrcHash = unitSrcHash(cb, ui.File, ui.Role, ui.Deps, ui.MissingDeps)
	fsp := usp.Start("ted.fingerprint")
	ui.FPs = make(map[string]tree.Fingerprint, len(ui.Trees))
	for m, t := range ui.Trees {
		ui.FPs[m] = t.Fingerprint()
	}
	fsp.End()
	ui.LinesHash = linesHash(ui.SourceLines)
	ui.LinesPPHash = linesHash(ui.SourceLinesPP)
}

// IncrStats counts what an incremental operation reused versus redid.
// Engine methods accumulate the same counts engine-lifetime (Engine.
// IncrStats), in counters the recorder adopts as incr.*.
type IncrStats struct {
	UnitsReused     int // parsed units served from the unit memo or a prior index
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

// IndexCodebaseIncremental indexes cb through the engine's unit memo
// (DESIGN.md §12), with prior's units joining it as candidates: a unit
// is reused wherever its recomputed source hash matches the recorded one,
// and unmatched (edited, added, renamed, or dependency-touched) units
// re-run the frontend on the engine's worker pool. The result is always
// identical to IndexCodebase(cb, opts): reuse is keyed purely by content,
// and a prior index built under different options (or for a different
// app/model/language) disqualifies itself entirely. A nil prior leaves
// the memo alone to serve. A failed run returns no Index and zero stats;
// a successful one adds its split to the engine-lifetime incr.* counts.
func (e *Engine) IndexCodebaseIncremental(cb *corpus.Codebase, prior *Index, opts Options) (*Index, IncrStats, error) {
	return e.indexMemo(context.Background(), cb, prior, e.indexOpts(opts))
}

// indexOpts gives opts the engine's worker pool and, unless the caller
// set one, its recorder.
func (e *Engine) indexOpts(opts Options) Options {
	opts.Workers = e.workers
	if opts.Recorder == nil {
		opts.Recorder = e.rec
	}
	return opts
}

// indexMemo is every engine index that runs the pipeline: each unit is
// served from the unit memo when a candidate validates and parsed (then
// published) otherwise, and the split is counted in incr.units_reused and
// incr.units_reparsed — only for a run that returns an Index.
func (e *Engine) indexMemo(ctx context.Context, cb *corpus.Codebase, prior *Index, opts Options) (*Index, IncrStats, error) {
	od := opts.Digest()
	idx, st, err := indexUnits(ctx, cb, opts, unitSource{
		memo: e.units, call: e.units.begin(), od: od, prior: priorUnits(prior, cb, od),
	})
	if err != nil {
		return nil, IncrStats{}, err
	}
	k := e.counts
	// Adopted on first use, so runs that never index keep the counter set
	// they always had.
	e.rec.Adopt("incr.units_reused", &k.unitsReused)
	e.rec.Adopt("incr.units_reparsed", &k.unitsReparsed)
	k.unitsReused.Add(int64(st.UnitsReused))
	k.unitsReparsed.Add(int64(st.UnitsReparsed))
	return idx, st, nil
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
// hashes (orientation preserved — the reverse normalisation differs) and
// the metric. Everything that can change a cell's value is in the key, so
// a memo hit is bit-identical to recomputation by construction.
type cellKey struct {
	a, b   store.ContentHash
	metric string
}

// cellVal is one memoised cell: both normalised orientations.
type cellVal struct {
	norm, rev float64
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
// reused/recomputed across every Matrix call, units
// reused/reparsed across every engine index that ran the pipeline
// (IndexCodebase on a store miss or without a store, and
// IndexCodebaseIncremental), and the
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
