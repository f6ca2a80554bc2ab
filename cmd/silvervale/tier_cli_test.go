package main

// CLI smoke tests for -tier-budget: the post-sweep tier stats line and
// the ted.tier_* metrics must appear exactly when tiering is requested,
// for both the exact sub-screening budgets and the screening budget, and
// non-finite budgets are usage errors.

import (
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// captureBoth runs a CLI invocation with stdout and stderr captured
// separately.
func captureBoth(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	re, we, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = wo, we
	outCh, errCh := make(chan string), make(chan string)
	go func() { data, _ := io.ReadAll(ro); outCh <- string(data) }()
	go func() { data, _ := io.ReadAll(re); errCh <- string(data) }()
	runErr := run(args)
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return <-outCh, <-errCh, runErr
}

func tierCounter(t *testing.T, metrics, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^silvervale_ted_` + name + ` (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no silvervale_ted_%s counter in output:\n%s", name, metrics)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestExperimentTierStatsLineAndMetrics: a tiered experiment sweep prints
// the stats line with its policy and registers nonzero ted.tier_*
// counters; without -tier-budget neither appears.
func TestExperimentTierStatsLineAndMetrics(t *testing.T) {
	out, err := capture(t, "experiment", trimExperiment, "-tier-budget", "0.2", "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ted tiering (budget 0.2") {
		t.Fatalf("tiered experiment missing stats line: %q", out)
	}
	pairs := tierCounter(t, out, "tier_pairs")
	exact := tierCounter(t, out, "tier_exact")
	if pairs == 0 || exact == 0 {
		t.Fatalf("tier counters not accumulated: pairs=%d exact=%d", pairs, exact)
	}
	if pairs != exact+tierCounter(t, out, "tier_estimated")+tierCounter(t, out, "tier_far") {
		t.Fatal("tier counters do not sum to routed pairs")
	}

	out, err = capture(t, "experiment", trimExperiment, "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "ted tiering") {
		t.Fatalf("untiered experiment printed a tier stats line: %q", out)
	}
	if tierCounter(t, out, "tier_pairs") != 0 {
		t.Fatal("untiered run accumulated tier pairs")
	}
}

// TestMatrixTierBudgetZeroSmoke: every budget below the screening budget
// engages the tiered path in its exact configuration — stdout matrix
// identical to the exact run, stats line on stderr reporting every routed
// pair as exact.
func TestMatrixTierBudgetZeroSmoke(t *testing.T) {
	plain, plainErr, err := captureBoth(t, "matrix", trimApp, "-metric", "tsem")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plainErr, "ted tiering") {
		t.Fatalf("untiered matrix printed a tier stats line: %q", plainErr)
	}
	for _, budget := range []string{"0", "0.2"} {
		tiered, tieredErr, err := captureBoth(t, "matrix", trimApp, "-metric", "tsem", "-tier-budget", budget)
		if err != nil {
			t.Fatal(err)
		}
		if tiered != plain {
			t.Fatalf("budget-%s matrix stdout differs from exact:\nexact:\n%s\ntiered:\n%s", budget, plain, tiered)
		}
		if !strings.Contains(tieredErr, "ted tiering (budget "+budget+" (exact)):") {
			t.Fatalf("budget-%s matrix missing stats line on stderr: %q", budget, tieredErr)
		}
		if !regexp.MustCompile(`(\d+) pairs: (\d+) exact, 0 estimated, 0 lsh-far`).MatchString(tieredErr) {
			t.Fatalf("budget-%s stats line reports non-exact pairs: %q", budget, tieredErr)
		}
	}
}

// TestTierBudgetRejectsNonFinite: NaN and ±Inf are usage errors in either
// flag position, not a silently disabled (NaN) or screening (+Inf) sweep.
func TestTierBudgetRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "+Inf", "Inf", "-Inf", "bogus"} {
		for _, args := range [][]string{
			{"matrix", "babelstream-fortran", "-metric", "tsem", "-tier-budget", v},
			{"-tier-budget", v, "matrix", "babelstream-fortran", "-metric", "tsem"},
		} {
			stdout, stderr, err := captureBoth(t, args...)
			if err == nil {
				t.Fatalf("%v: accepted, want a usage error", args)
			}
			if !strings.Contains(err.Error(), "-tier-budget") {
				t.Fatalf("%v: error %q does not name the flag", args, err)
			}
			if stdout != "" || strings.Contains(stderr, "ted tiering") {
				t.Fatalf("%v: ran a sweep before rejecting the budget:\n%s%s", args, stdout, stderr)
			}
		}
	}
}

// TestMatrixTieredWarmStore drives the tiered warm-store path from the
// CLI: a screening sweep run cold, then warm, over one -cache-dir. The
// warm stdout and tier stats line must be byte-identical to the cold
// ones, screening must leave nothing on disk but the exact-distance and
// index tiers, and a second cold run over a fresh directory must report
// the same cache line as the first.
func TestMatrixTieredWarmStore(t *testing.T) {
	argsIn := func(dir string) []string {
		return []string{"matrix", trimApp, "-metric", "tsem", "-tier-budget", "0.5", "-cache-dir", dir, "-workers", "1"}
	}
	dir := t.TempDir()
	args := argsIn(dir)
	cold, coldErr, err := captureBoth(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmErr, err := captureBoth(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm tiered stdout differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	tierLine := regexp.MustCompile(`(?m)^ted tiering .*$`)
	coldLine, warmLine := tierLine.FindString(coldErr), tierLine.FindString(warmErr)
	if coldLine == "" || warmLine != coldLine {
		t.Fatalf("tier stats line: cold %q, warm %q", coldLine, warmLine)
	}
	if regexp.MustCompile(`: \d+ exact, 0 estimated, 0 lsh-far$`).MatchString(coldLine) {
		t.Fatalf("screening sweep estimated no pair, the warm read proves nothing: %q", coldLine)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"idx", "ted"}) {
		t.Fatalf("cache dir holds %v, want only idx and ted", names)
	}
	if strings.Contains(coldErr+warmErr, "tier tier") {
		t.Fatalf("screening sweep reported store tier traffic:\n%s%s", coldErr, warmErr)
	}
	// Store traffic depends only on the inputs.
	_, cold2Err, err := captureBoth(t, argsIn(t.TempDir())...)
	if err != nil {
		t.Fatal(err)
	}
	cacheLine := regexp.MustCompile(`(?m)^ted cache: .*$`)
	if a, b := cacheLine.FindString(coldErr), cacheLine.FindString(cold2Err); a == "" || a != b {
		t.Fatalf("two cold runs disagree on the cache line:\n%s\n%s", a, b)
	}
}
