package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"silvervale/internal/cbdb"
	"silvervale/internal/cluster"
	"silvervale/internal/compdb"
	"silvervale/internal/core"
	"silvervale/internal/store"
	"silvervale/internal/textplot"
)

// cmdWatch holds a warm engine resident over a directory of ingested
// ports and re-emits the divergence matrix whenever an edit lands. Each
// immediate subdirectory containing a compile_commands.json is one port;
// edits are detected by content hash, units are re-frontended only when
// their dependency closure changed, and matrix cells are served from the
// engine's memo unless a side's metric hash moved (DESIGN.md §12).
//
// The -since form is the one-shot CI variant: restore warm state from a
// snapshot written by -snapshot, emit exactly one incremental sweep, and
// exit. Matrix stdout is byte-identical to a cold run over the same
// sources; the incremental accounting goes to stderr.
func cmdWatch(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	metric := fs.String("metric", core.MetricTsem, "metric")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval between scans")
	iters := fs.Int("iters", 0, "exit after this many emitted sweeps (0 = run until interrupted)")
	snapPath := fs.String("snapshot", "", "persist warm state (indexes, memoised cells and subtree blocks) here after every sweep")
	since := fs.String("since", "", "one-shot CI form: restore warm state from this snapshot, sweep once, exit")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 1)
	if err != nil {
		return err
	}
	engine, err := cfg.newEngine(*workers)
	if err != nil {
		return err
	}
	w := &watcher{
		root:   pos[0],
		metric: *metric,
		engine: engine,
		prior:  map[string]*core.Index{},
		hashes: map[string]store.ContentHash{},
		out:    os.Stdout,
		errw:   os.Stderr,
	}
	if *since != "" {
		snap, err := core.LoadSnapshot(*since)
		if err != nil {
			return err
		}
		if err := w.restore(snap); err != nil {
			return err
		}
		if _, err := w.sweep(true); err != nil {
			return err
		}
		if *snapPath != "" {
			return w.save(*snapPath)
		}
		return nil
	}
	emitted := 0
	for {
		changed, err := w.sweep(emitted == 0)
		if err != nil {
			// Before anything has been emitted the tree is simply invalid:
			// fail. Afterwards, mid-edit trees are routinely inconsistent
			// (half-written files, vanished includes): report and retry.
			if emitted == 0 {
				return err
			}
			fmt.Fprintf(w.errw, "watch: %v\n", err)
		} else if changed {
			emitted++
			if *snapPath != "" {
				if err := w.save(*snapPath); err != nil {
					return err
				}
			}
			if *iters > 0 && emitted >= *iters {
				return nil
			}
		}
		time.Sleep(*interval)
	}
}

// watcher is the resident warm state: the last good index and content
// hash per port, plus the engine whose cell memo carries across sweeps.
type watcher struct {
	root      string
	metric    string
	engine    *core.Engine
	prior     map[string]*core.Index
	hashes    map[string]store.ContentHash
	prevStats core.IncrStats
	out, errw io.Writer
}

// restore seeds the watcher from a snapshot: prior indexes for frontend
// reuse, memoised cells for the matrix sweep, subtree blocks for the TED
// of the cells that recompute. Content addressing makes a stale snapshot
// harmless — entries that no longer match simply miss.
func (w *watcher) restore(snap *core.Snapshot) error {
	for label, db := range snap.Models {
		idx, err := core.IndexFromDB(db)
		if err != nil {
			return fmt.Errorf("watch: snapshot model %q: %w", label, err)
		}
		w.prior[label] = idx
	}
	w.engine.ImportCells(snap.Cells)
	w.engine.ImportSubtreeBlocks(snap.Subs)
	return nil
}

// save persists the current warm state for a later -since run.
func (w *watcher) save(path string) error {
	snap := &core.Snapshot{
		Metric: w.metric,
		Models: map[string]*cbdb.DB{},
		Cells:  w.engine.ExportCells(),
		Subs:   w.engine.ExportSubtreeBlocks(),
	}
	for label, idx := range w.prior {
		snap.Models[label] = idx.ToDB()
	}
	return snap.Save(path)
}

// scanPorts lists the immediate subdirectories of root that contain a
// compile_commands.json, in sorted order.
func (w *watcher) scanPorts() ([]string, error) {
	entries, err := os.ReadDir(w.root)
	if err != nil {
		return nil, err
	}
	var ports []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cc := filepath.Join(w.root, e.Name(), "compile_commands.json")
		if _, err := os.Stat(cc); err == nil {
			ports = append(ports, e.Name())
		}
	}
	sort.Strings(ports)
	if len(ports) == 0 {
		return nil, fmt.Errorf("watch: no port directories (with compile_commands.json) under %s", w.root)
	}
	return ports, nil
}

// sweep performs one scan-index-emit cycle. It returns whether anything
// was emitted: unless force is set, a scan where every port's content
// hash is unchanged emits nothing.
func (w *watcher) sweep(force bool) (bool, error) {
	ports, err := w.scanPorts()
	if err != nil {
		return false, err
	}
	dirty := force
	idxs := map[string]*core.Index{}
	for _, label := range ports {
		dir := filepath.Join(w.root, label)
		db, err := compdb.Load(filepath.Join(dir, "compile_commands.json"))
		if err != nil {
			return false, fmt.Errorf("%s: %w", label, err)
		}
		cb, err := core.LoadCodebase(dir, db)
		if err != nil {
			return false, fmt.Errorf("%s: %w", label, err)
		}
		h := core.CodebaseContentHash(cb)
		if prior, ok := w.prior[label]; ok && h == w.hashes[label] {
			idxs[label] = prior
			continue
		}
		idx, _, err := w.engine.IndexCodebaseIncremental(cb, w.prior[label], core.Options{})
		if err != nil {
			return false, fmt.Errorf("%s: %w", label, err)
		}
		w.prior[label] = idx
		w.hashes[label] = h
		idxs[label] = idx
		dirty = true
	}
	// Ports removed from disk drop out of the resident state too.
	for label := range w.prior {
		if _, ok := idxs[label]; !ok {
			delete(w.prior, label)
			delete(w.hashes, label)
			dirty = true
		}
	}
	if !dirty {
		return false, nil
	}
	m, err := w.engine.Matrix(idxs, ports, w.metric)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w.out, textplot.Heatmap(ports, ports, m))
	root, err := cluster.Agglomerate(ports, cluster.EuclideanFromMatrix(m))
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w.out, cluster.Render(root))
	stats := w.engine.IncrStats()
	fmt.Fprintln(w.errw, stats.Delta(w.prevStats).Line())
	w.prevStats = stats
	return true, nil
}
