package main

import (
	"strings"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// layerNames lists every per-layer metric a traced run reports, grouped by
// module (README.md has the table of which end-to-end metric each should
// move). Times are totals over the traced run's fixed operation sequence
// unless the name ends in _us (mean per call) or is a ratio.
var layerNames = []string{
	// ted DP
	"ted.dp_ms", "ted.dp_calls", "ted.pair_nodes", "ted.bound_pruned",
	"ted.pair_nodes_max", "ted.pred_left_subproblems", "ted.pred_right_subproblems",
	// ted memos
	"ted.dist_hit_ratio", "ted.subtree_blocks_hit", "ted.subtree_blocks_miss",
	"ted.subtree_hit_ratio", "ted.ckpt_rows_hit", "ted.probe_rows_hit",
	"ted.flat_memo_hit_ratio", "ted.memo_bytes",
	// core engine
	"engine.matrix_ms", "engine.busy_ratio", "engine.cells_recomputed", "engine.cells_reused",
	// core incr
	"incr.index_ms", "incr.units_reparsed", "incr.units_reused",
	// frontend
	"frontend.index_ms", "frontend.units_indexed", "frontend.preprocess_ms",
	"frontend.parse_ms", "frontend.srctree_ms", "ir.lower_ms", "tree.fingerprint_ms",
	// store
	"store.open_ms", "store.flush_ms", "store.bytes_written", "store.bytes_read",
	"store.hits", "store.misses", "store.corrupt_skipped",
	// interp, perf, navchart
	"interp.profile_ms", "interp.runs", "navchart.build_ms",
	// render
	"render.matrix_json_us", "render.navchart_json_us", "render.heatmap_us", "render.dendrogram_us",
	// serve
	"serve.handler_us", "serve.net_us", "serve.registry_entries", "serve.rejected", "serve.errors",
	// Go runtime
	"runtime.alloc_mb", "runtime.allocs", "runtime.gc_cycles", "runtime.gc_pause_ms",
	// the benchmark itself
	"bench.ops", "bench.trace_overhead", "bench.unattributed_ms",
	"split.primary_share", "split.secondary_share",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_bytes"), strings.HasPrefix(name, "store.bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_overhead"):
		return "ratio"
	}
	return "count"
}

func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	return m
}

// engineTally accumulates cache and incremental counters over every
// engine a traced phase used (cold_store opens a fresh one per pass).
type engineTally struct {
	cache    ted.CacheStats // summed deltas; the *Bytes fields hold the largest value
	incr     core.IncrStats
	store    store.Stats
	eng      *core.Engine
	c0       ted.CacheStats
	i0       core.IncrStats
	attached bool
}

// attach starts tallying eng from its current counters.
func (t *engineTally) attach(eng *core.Engine) {
	t.eng, t.c0, t.i0, t.attached = eng, eng.CacheStats(), eng.IncrStats(), true
}

// detach folds eng's counters since attach into the tally.
func (t *engineTally) detach() {
	if !t.attached {
		return
	}
	c1, i1 := t.eng.CacheStats(), t.eng.IncrStats()
	c := &t.cache
	c.Hits += c1.Hits - t.c0.Hits
	c.Misses += c1.Misses - t.c0.Misses
	c.BoundPruned += c1.BoundPruned - t.c0.BoundPruned
	c.FlatHits += c1.FlatHits - t.c0.FlatHits
	c.FlatMisses += c1.FlatMisses - t.c0.FlatMisses
	c.SubtreeHits += c1.SubtreeHits - t.c0.SubtreeHits
	c.SubtreeMisses += c1.SubtreeMisses - t.c0.SubtreeMisses
	c.CheckpointHits += c1.CheckpointHits - t.c0.CheckpointHits
	c.ProbeRowHits += c1.ProbeRowHits - t.c0.ProbeRowHits
	c.SubtreeBytes = max(c.SubtreeBytes, c1.SubtreeBytes)
	c.CheckpointBytes = max(c.CheckpointBytes, c1.CheckpointBytes)
	c.ProbeRowBytes = max(c.ProbeRowBytes, c1.ProbeRowBytes)
	d := i1.Delta(t.i0)
	t.incr.UnitsReused += d.UnitsReused
	t.incr.UnitsReparsed += d.UnitsReparsed
	t.incr.CellsReused += d.CellsReused
	t.incr.CellsRecomputed += d.CellsRecomputed
	t.attached = false
}

// addStore folds one closed store's traffic into the tally.
func (t *engineTally) addStore(s store.Stats) {
	t.store.Hits += s.Hits
	t.store.Misses += s.Misses
	t.store.BytesRead += s.BytesRead
	t.store.BytesWritten += s.BytesWritten
	t.store.CorruptSkipped += s.CorruptSkipped
}

func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// programLayers fills the per-layer metrics read from the program's own
// accounting: obs spans inside the traced operation windows, obs counter
// deltas between two snapshots, and the engine tally.
func programLayers(l map[string]float64, rec *obs.Recorder, before obs.Snapshot, windows []interval, t *engineTally, workers int) {
	spans := rec.Spans()
	after := rec.Snapshot()
	busy := func(name string) (time.Duration, int) { return obsBusy(spans, name, windows) }

	dp, dpn := busy("ted.distance")
	l["ted.dp_ms"] = ms(dp)
	l["ted.bound_pruned"] = float64(t.cache.BoundPruned)
	if pruned := t.cache.BoundPruned; uint64(dpn) > pruned {
		l["ted.dp_calls"] = float64(uint64(dpn) - pruned)
	}
	pa, pb := before.Histograms["ted.pair_nodes"], after.Histograms["ted.pair_nodes"]
	if n := pb.Count - pa.Count; n > 0 {
		l["ted.pair_nodes"] = float64(pb.Sum-pa.Sum) / float64(n)
	}

	c := t.cache
	l["ted.dist_hit_ratio"] = ratio(c.Hits, c.Misses)
	l["ted.subtree_blocks_hit"] = float64(c.SubtreeHits)
	l["ted.subtree_blocks_miss"] = float64(c.SubtreeMisses)
	l["ted.subtree_hit_ratio"] = ratio(c.SubtreeHits, c.SubtreeMisses)
	l["ted.ckpt_rows_hit"] = float64(c.CheckpointHits)
	l["ted.probe_rows_hit"] = float64(c.ProbeRowHits)
	l["ted.flat_memo_hit_ratio"] = ratio(c.FlatHits, c.FlatMisses)
	l["ted.memo_bytes"] = float64(c.SubtreeBytes + c.CheckpointBytes + c.ProbeRowBytes)

	mw, _ := busy("engine.matrix")
	cells, _ := busy("engine.cell")
	l["engine.matrix_ms"] = ms(mw)
	if mw > 0 {
		l["engine.busy_ratio"] = float64(cells) / (float64(mw) * float64(workers))
	}
	l["engine.cells_recomputed"] = float64(t.incr.CellsRecomputed)
	l["engine.cells_reused"] = float64(t.incr.CellsReused)

	iw, _ := busy("incr.index")
	l["incr.index_ms"] = ms(iw)
	l["incr.units_reparsed"] = float64(t.incr.UnitsReparsed)
	l["incr.units_reused"] = float64(t.incr.UnitsReused)

	fe, units := busy("index.unit")
	l["frontend.index_ms"] = ms(fe)
	l["frontend.units_indexed"] = float64(units)
	for metric, name := range map[string]string{
		"frontend.preprocess_ms": "frontend.preprocess",
		"frontend.parse_ms":      "frontend.parse",
		"frontend.srctree_ms":    "frontend.srctree",
		"ir.lower_ms":            "ir.lower",
		"tree.fingerprint_ms":    "ted.fingerprint",
		"interp.profile_ms":      "interp.profile",
	} {
		d, _ := busy(name)
		l[metric] = ms(d)
	}
	l["interp.runs"] = float64(after.Counters["interp.runs"] - before.Counters["interp.runs"])

	s := t.store
	l["store.bytes_written"] = float64(s.BytesWritten)
	l["store.bytes_read"] = float64(s.BytesRead)
	l["store.hits"] = float64(s.Hits)
	l["store.misses"] = float64(s.Misses)
	l["store.corrupt_skipped"] = float64(s.CorruptSkipped)
}

// benchLayers fills the metrics measured by the benchmark's own spans:
// store.open/flush and Env.NavChart totals, the render.* per-call means,
// and the operation count and unattributed time.
func benchLayers(l map[string]float64, sp map[string]*split, calls map[string]int) {
	total := func(layer string) time.Duration {
		var d time.Duration
		for _, s := range sp {
			d += s.layers[layer]
		}
		return d
	}
	l["store.open_ms"] = ms(total("store.open"))
	l["store.flush_ms"] = ms(total("store.flush"))
	l["navchart.build_ms"] = ms(total("env.navchart"))
	for metric, layer := range map[string]string{
		"render.matrix_json_us":   "render.matrix_json",
		"render.navchart_json_us": "render.navchart_json",
		"render.heatmap_us":       "render.heatmap",
		"render.dendrogram_us":    "render.dendrogram",
	} {
		if n := calls[layer]; n > 0 {
			l[metric] = float64(total(layer)) / float64(time.Microsecond) / float64(n)
		}
	}
	var ops int
	var un time.Duration
	for _, s := range sp {
		ops += s.ops
		un += s.unattributed()
	}
	l["bench.ops"] = float64(ops)
	l["bench.unattributed_ms"] = ms(un)
}

// countCalls counts finished spans per name from after.
func (t *tracer) countCalls(after time.Duration) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for _, s := range t.spans {
		if s.Start >= after {
			out[s.Name]++
		}
	}
	return out
}

// allWindows concatenates every phase's operation windows, sorted.
func allWindows(sp map[string]*split) []interval {
	var w []interval
	for _, s := range sp {
		w = append(w, s.windows...)
	}
	all := &split{windows: w}
	all.sortWindows()
	return all.windows
}
