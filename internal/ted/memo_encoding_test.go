package ted_test

// The subtree-block and checkpoint memos store their cells narrow: blocks
// two bytes per cell unless a cell leaves [0, 65535], checkpoint rows one
// varint byte per cell unless a row step leaves [−64, 63] (DESIGN.md
// §13). These tests drive real corpus trees through cost models that
// overflow both narrow widths and check that nothing is truncated, and
// that the memos' byte accounting matches the heap they hold.

import (
	"runtime"
	"sync"
	"testing"

	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// functionTrees returns babelstream tsem unit trees with at least two
// root children (functions), so an appended function leaves earlier
// checkpoint boundaries intact.
func functionTrees(t *testing.T, maxNodes, n int) []*tree.Node {
	var out []*tree.Node
	for _, tr := range corpusTsemTrees(t, "babelstream", maxNodes) {
		if len(tr.Children) >= 2 && len(out) < n {
			out = append(out, tr)
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d babelstream trees with two functions", len(out))
	}
	return out
}

// appendFunction returns a copy of tr with a copy of its first function
// appended as a new last root child.
func appendFunction(tr *tree.Node) *tree.Node {
	c := tr.Clone()
	c.Add(tr.Children[0].Clone())
	return c
}

// TestMemoEncodingsExact runs every ordered pair of a few corpus trees
// cold, warm, and with an appended function on the row side (which
// resumes the root row from a checkpoint), on one shared cache per
// worker count, and checks each distance against the monolithic DP.
// Unit costs must store every entry narrow; the two large cost models
// must take the wide path in both memos. Under the race detector it takes
// three trees instead of five.
func TestMemoEncodingsExact(t *testing.T) {
	n := 5
	if ted.RaceEnabled {
		n = 3
	}
	trees := functionTrees(t, 350, n)
	edited := make([]*tree.Node, len(trees))
	for i, tr := range trees {
		edited[i] = appendFunction(tr)
	}
	type pair struct{ a, b *tree.Node }
	var cold, edit []pair
	for x := range trees {
		for y := range trees {
			if x != y {
				cold = append(cold, pair{trees[x], trees[y]})
				edit = append(edit, pair{edited[x], trees[y]})
			}
		}
	}
	models := []struct {
		costs ted.Costs
		wide  bool
	}{
		{ted.UnitCosts(), false},
		{ted.Costs{Insert: 300, Delete: 200, Rename: 400}, true},
		{ted.Costs{Insert: 1000, Delete: 900, Rename: 1200}, true}, // cells above 65,535
	}
	for _, m := range models {
		for _, workers := range []int{1, 2} {
			c := ted.NewCache()
			run := func(phase string, pairs []pair) {
				var wg sync.WaitGroup
				errs := make(chan string, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for k := w; k < len(pairs); k += workers {
							p := pairs[k]
							if got, want := ted.DPDistance(c, p.a, p.b, m.costs), ted.DistanceWithCosts(p.a, p.b, m.costs); got != want {
								errs <- phase
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				if phase, bad := <-errs; bad {
					t.Fatalf("costs %+v, %d workers, %s pass: memoised distance differs from the monolithic DP", m.costs, workers, phase)
				}
			}
			run("cold", cold)
			st := c.Stats()
			run("warm", cold)
			if s := c.Stats(); s.SubtreeHits == st.SubtreeHits {
				t.Fatalf("costs %+v: warm pass served no blocks", m.costs)
			}
			st = c.Stats()
			run("appended-function", edit)
			if s := c.Stats(); s.CheckpointHits == st.CheckpointHits {
				t.Fatalf("costs %+v: no appended-function pair resumed a root row", m.costs)
			}
			blocks, rows := ted.WideMemoEntries(c)
			if m.wide && (blocks == 0 || rows == 0) {
				t.Fatalf("costs %+v: %d wide blocks and %d multi-byte rows, want both on the wide path", m.costs, blocks, rows)
			}
			if !m.wide && (blocks != 0 || rows != 0) {
				t.Fatalf("unit costs stored %d wide blocks and %d multi-byte rows", blocks, rows)
			}
		}
	}
}

// liveHeap returns the live heap after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoBytesMatchHeap fills a cache with cold tsem matrices and checks
// the memos' accounted bytes (SubtreeBytes + CheckpointBytes, the figures
// the byte bounds act on) against the heap they hold: the drop in live
// heap when both memos are emptied. Under the race detector only
// babelstream runs.
func TestMemoBytesMatchHeap(t *testing.T) {
	apps := []string{"babelstream", "minibude"}
	if ted.RaceEnabled {
		apps = apps[:1]
	}
	for _, app := range apps {
		trees := corpusTsemTrees(t, app, 1<<30)
		c := ted.NewCache()
		for x := range trees {
			for y := x + 1; y < len(trees); y++ {
				c.Distance(trees[x], trees[y])
			}
		}
		st := c.Stats()
		full := liveHeap()
		ted.DropMemos(c)
		empty := liveHeap()
		runtime.KeepAlive(c)
		runtime.KeepAlive(trees)
		accounted := float64(st.SubtreeBytes + st.CheckpointBytes)
		measured := float64(full) - float64(empty)
		t.Logf("%s: %d blocks, %d checkpoint rows: accounted %.0f B, measured %.0f B (%.3f)",
			app, st.SubtreeBlocks, st.CheckpointRows, accounted, measured, accounted/measured)
		if accounted < 0.75*measured || accounted > 1.25*measured {
			t.Fatalf("%s: accounted %.0f B is not within 25%% of the %.0f B the memos hold", app, accounted, measured)
		}
	}
}
