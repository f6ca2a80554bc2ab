package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// capture runs a CLI invocation with stdout captured. The reader drains
// concurrently so large outputs cannot deadlock on the pipe buffer.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tealeaf", "sycl-acc", "tsem", "fig15"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("expected error")
	}
	if err := run(nil); err != nil {
		t.Fatal("bare invocation prints usage")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAndIngestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bs-omp")
	out, err := capture(t, "generate", "babelstream", "omp", "-o", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compile_commands.json") {
		t.Fatalf("generate output: %q", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "kernels.cpp")); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, "ingest", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "model=omp") {
		t.Fatalf("ingest output: %q", out)
	}
}

func TestGenerateRequiresOutput(t *testing.T) {
	if err := run([]string{"generate", "babelstream", "omp"}); err == nil {
		t.Fatal("expected error without -o")
	}
	if err := run([]string{"generate", "babelstream"}); err == nil {
		t.Fatal("expected error with missing positional")
	}
}

func TestIndexCommand(t *testing.T) {
	db := filepath.Join(t.TempDir(), "out.svdb")
	out, err := capture(t, "index", "babelstream", "serial", "-db", db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "self-check") {
		t.Fatalf("index output: %q", out)
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatal("codebase DB not written")
	}
}

func TestDivergeCommand(t *testing.T) {
	out, err := capture(t, "diverge", "babelstream", "serial", "omp", "-metric", "tsem")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tsem") || !strings.Contains(out, "norm=") {
		t.Fatalf("diverge output: %q", out)
	}
	if err := run([]string{"diverge", "babelstream", "serial", "nope"}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestPhiCommand(t *testing.T) {
	out, err := capture(t, "phi", "tealeaf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kokkos") || !strings.Contains(out, "phi=") {
		t.Fatalf("phi output: %q", out)
	}
}

func TestExperimentCommand(t *testing.T) {
	out, err := capture(t, "experiment", "table3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MI250X") {
		t.Fatalf("experiment output: %q", out)
	}
	if err := run([]string{"experiment", "fig99"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if err := run([]string{"experiment"}); err == nil {
		t.Fatal("expected error for missing id")
	}
}

// storeHits extracts the silvervale_store_hits counter from -metrics
// output.
func storeHits(t *testing.T, metrics string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^silvervale_store_hits (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no silvervale_store_hits counter in output:\n%s", metrics)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMatrixCacheDirColdThenWarm is the CLI smoke test for -cache-dir: a
// cold run fills the store, the warm run produces byte-identical stdout,
// and a readonly warm run reports store hits in -metrics.
func TestMatrixCacheDirColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	cold, err := capture(t, "matrix", trimApp, "-metric", "tsem", "-cache-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, trimAppMarker) {
		t.Fatalf("matrix output: %q", cold)
	}
	warm, err := capture(t, "matrix", trimApp, "-metric", "tsem", "-cache-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	out, err := capture(t, "matrix", trimApp, "-metric", "tsem",
		"-cache-dir", dir, "-cache-readonly", "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if hits := storeHits(t, out); hits == 0 {
		t.Fatal("readonly warm run reported zero store hits")
	}
	// -cache-clear empties the tiers: the next run is cold again. One
	// worker, because with several a worker may legitimately read a sub
	// tier block a peer persisted earlier in the same run (DESIGN.md §13).
	out, err = capture(t, "matrix", trimApp, "-metric", "tsem",
		"-cache-dir", dir, "-cache-clear", "-metrics", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	if hits := storeHits(t, out); hits != 0 {
		t.Fatalf("run after -cache-clear hit the store %d times", hits)
	}
}

// TestExperimentCacheStatsLineGainsStore checks the post-sweep cache-stats
// line: store-less runs keep the exact old shape, -cache-dir runs append
// the store fragment.
func TestExperimentCacheStatsLineGainsStore(t *testing.T) {
	out, err := capture(t, "experiment", trimExperiment)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ted cache:") || strings.Contains(out, "store") {
		t.Fatalf("store-less cache-stats line changed: %q", out)
	}
	dir := t.TempDir()
	out, err = capture(t, "experiment", trimExperiment, "-cache-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "store ") || !strings.Contains(out, "corrupt-skipped") {
		t.Fatalf("cache-stats line missing store fragment: %q", out)
	}
}

func TestDumpCommand(t *testing.T) {
	out, err := capture(t, "dump", "babelstream", "serial", "-tree", "tsem")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FunctionDecl") {
		t.Fatalf("dump output: %q", out)
	}
	if err := run([]string{"dump", "babelstream", "serial", "-tree", "bogus"}); err == nil {
		t.Fatal("expected error for unknown tree")
	}
}
