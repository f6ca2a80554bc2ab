package main

// Golden tests for the post-sweep stats lines at -workers 1: the lines are
// rendered from the modules' own counters, so any drift in how an event is
// counted shows up here byte for byte, not only as a missing fragment.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	goldenFig1Cache = "ted cache: 0 hits (0 identity), 0 misses, 0 symmetric canonicalisations, 0 entries, 0 profiles, hit rate 0.0%, 0 bound-pruned, flat memo 0/0 hit rate 0.0%, subtree blocks 0 hit/0 miss, 0 resident (0B), 0 evicted, ckpt rows 0 hit/0 miss, 0 resident (0B), 0 evicted"

	goldenWarmStoreCache = "ted cache: 17 hits (3 identity), 73 misses, 46 symmetric canonicalisations, 73 entries, 0 profiles, hit rate 18.9%, 0 bound-pruned, flat memo 0/0 hit rate 0.0%, subtree blocks 0 hit/0 miss, 0 resident (0B), 0 evicted, ckpt rows 0 hit/0 miss, 0 resident (0B), 0 evicted, store 83 hits, 0 misses, 65889B read, 0B written, 0 corrupt-skipped, ted tier 0B written/8572B read, idx tier 0B written/57317B read"

	goldenColdStoreCache = "ted cache: 17 hits (3 identity), 73 misses, 46 symmetric canonicalisations, 73 entries, 0 profiles, hit rate 18.9%, 1 bound-pruned, flat memo 128/146 hit rate 87.7%, subtree blocks 234201 hit/103100 miss, 52022 resident (7254244B), 0 evicted, ckpt rows 7144 hit/5893 miss, 38067 resident (3686493B), 0 evicted, store 0 hits, 83 misses, 0B read, 65889B written, 0 corrupt-skipped, ted tier 8572B written/0B read, idx tier 57317B written/0B read"

	goldenWatchEdit = "incremental: 1 cells reused, 2 recomputed; 5 units reused, 1 reparsed; 4298 subtree blocks reused, 143 recomputed"
)

// lineWith returns the single line of out starting with prefix.
func lineWith(t *testing.T, out, prefix string) string {
	t.Helper()
	var found []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %q line, got %d in:\n%s", prefix, len(found), out)
	}
	return found[0]
}

func assertGolden(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("stats line drifted:\n got: %s\nwant: %s", got, want)
	}
}

func TestGoldenExperimentCacheLine(t *testing.T) {
	out, err := capture(t, "experiment", "fig1", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, lineWith(t, out, "ted cache:"), goldenFig1Cache)
}

// The two matrix sweeps below are too slow under -race (see
// race_on_test.go); the plain suite pins them.

func TestGoldenWarmStoreCacheLine(t *testing.T) {
	if raceEnabled {
		t.Skip("C++ BabelStream sweep is too slow under -race")
	}
	dir := t.TempDir()
	if _, _, err := captureBoth(t, "matrix", "babelstream", "-cache-dir", dir, "-workers", "1"); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := captureBoth(t, "matrix", "babelstream", "-cache-dir", dir, "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, lineWith(t, stderr, "ted cache:"), goldenWarmStoreCache)
}

// TestGoldenColdStoreCacheLine pins a cold -cache-dir sweep: every put
// commits on its caller, so the store fragment is a pure function of the
// inputs, like the rest of the line.
func TestGoldenColdStoreCacheLine(t *testing.T) {
	if raceEnabled {
		t.Skip("C++ BabelStream sweep is too slow under -race")
	}
	_, stderr, err := captureBoth(t, "matrix", "babelstream", "-cache-dir", t.TempDir(), "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, lineWith(t, stderr, "ted cache:"), goldenColdStoreCache)
}

// goldenColdDPCells are the DP counters of a cold babelstream sweep: the
// forest-distance cells the keyroot DPs computed and the root-child
// sub-DPs run each way. They are a pure function of the trees, the memo
// thresholds and the path plan, so a DP kernel change that computes
// different cells fails here even when every distance still matches.
var goldenColdDPCells = []string{
	"silvervale_ted_dp_cells 160334285",
	"silvervale_ted_subdp_left 54",
	"silvervale_ted_subdp_mirrored 481",
}

func TestGoldenColdDPCells(t *testing.T) {
	if raceEnabled {
		t.Skip("C++ BabelStream sweep is too slow under -race")
	}
	out, _, err := captureBoth(t, "matrix", "babelstream", "-workers", "1", "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range goldenColdDPCells {
		name, _, _ := strings.Cut(want, " ")
		assertGolden(t, lineWith(t, out, name+" "), want)
	}
}

// TestGoldenWatchEditLine is the scripted one-function edit: three ports,
// one function appended to the cuda kernels, then a -since run.
func TestGoldenWatchEditLine(t *testing.T) {
	root := writePorts(t, "serial", "omp", "cuda")
	snap := filepath.Join(t.TempDir(), "warm.svsnap")
	if _, _, err := captureBoth(t, "watch", root, "-iters", "1", "-snapshot", snap, "-workers", "1"); err != nil {
		t.Fatal(err)
	}
	kernels := filepath.Join(root, "cuda", "kernels.cu")
	f, err := os.OpenFile(kernels, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\ndouble smoke_extra(double x) {\n\treturn x * 2.0;\n}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := captureBoth(t, "watch", root, "-since", snap, "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, lineWith(t, stderr, "incremental:"), goldenWatchEdit)
}
