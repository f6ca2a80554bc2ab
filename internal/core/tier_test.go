package core

// Exact-vs-tiered equivalence gate (the test harness the tiered engine is
// gated by): below ted.ScreeningBudget the tiered sweep must be
// byte-identical to the exact path; at screening budgets every cell's
// |tiered − exact| must stay within the budget, and the tiered output
// itself must be bit-identical across runs and worker counts. Run under
// -race (tier-1) to exercise the route/refine phase synchronisation.

import (
	"math"
	"strings"
	"testing"

	"silvervale/internal/ted"
)

var tierWorkerCounts = []int{1, 2, 4, 8}

// tierGateShort reports whether the gate should run its trimmed corpus:
// under -short, and under -race, where the detector multiplies DP cost
// ~10x and the full cross product would blow the package timeout.
func tierGateShort() bool { return testing.Short() || raceEnabled }

// tierGateApps pairs each seed app with the metrics the gate sweeps. The
// trimmed corpus is one small app with one metric; the full one adds a
// second metric plus two C++ apps. C++ babelstream has far pairs at
// every threshold, so it is the app where a budget below the screening
// budget would break if anything but the exact path served it.
func tierGateApps(short bool) map[string][]string {
	if short {
		return map[string][]string{"babelstream-fortran": {MetricTsem}}
	}
	return map[string][]string{
		"babelstream-fortran": {MetricTsem, MetricTsrc},
		"babelstream":         {MetricTsem},
		"tealeaf":             {MetricTsem},
	}
}

// TestMatrixTieredBudgetZeroByteIdentical: the budget-0 policy is the
// exact-equivalent configuration — identical bytes to the exact Matrix at
// every worker count, with every routed pair reported exact.
func TestMatrixTieredBudgetZeroByteIdentical(t *testing.T) {
	for app, metrics := range tierGateApps(tierGateShort()) {
		idxs, order := buildIndexes(t, app)
		for _, metric := range metrics {
			want, err := testEngine.Matrix(idxs, order, metric)
			if err != nil {
				t.Fatal(err)
			}
			// One cache across worker counts: determinism must hold with a
			// cold or warm memo alike, and the shared memo keeps the gate
			// inside the race detector's budget.
			cache := ted.NewCache()
			for _, workers := range tierWorkerCounts {
				e := NewEngineObs(workers, cache, nil)
				tm, err := e.MatrixTiered(idxs, order, metric, ted.TierPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				if matrixBytes(tm.Values) != matrixBytes(want) {
					t.Fatalf("%s/%s workers=%d: budget-0 tiered matrix differs from exact", app, metric, workers)
				}
				if tm.Stats.Pairs == 0 || tm.Stats.Pairs != tm.Stats.Exact {
					t.Fatalf("%s/%s: budget-0 provenance %+v, want all-exact", app, metric, tm.Stats)
				}
			}
		}
	}
}

// TestMatrixTieredWithinBudget: every cell's error against the exact
// matrix stays within the budget — below ted.ScreeningBudget the matrix
// is byte-identical to the exact one — provenance is mirrored and
// consistent, and the tiered bytes are identical across worker counts
// (scheduling independence under estimation). The trimmed run keeps the
// screening budget, so estimated pairs are checked under -race too.
func TestMatrixTieredWithinBudget(t *testing.T) {
	budgets := []float64{0.05, 0.2, 0.41, ted.ScreeningBudget}
	if tierGateShort() {
		budgets = []float64{ted.ScreeningBudget}
	}
	for app, metrics := range tierGateApps(tierGateShort()) {
		idxs, order := buildIndexes(t, app)
		for _, metric := range metrics {
			exact, err := testEngine.Matrix(idxs, order, metric)
			if err != nil {
				t.Fatal(err)
			}
			cache := ted.NewCache()
			for _, budget := range budgets {
				policy := ted.TierPolicy{Budget: budget}
				var ref string
				var refStats TierStats
				for _, workers := range tierWorkerCounts {
					e := NewEngineObs(workers, cache, nil)
					tm, err := e.MatrixTiered(idxs, order, metric, policy)
					if err != nil {
						t.Fatal(err)
					}
					for i := range tm.Values {
						for j := range tm.Values[i] {
							if got, want := tm.Values[i][j], exact[i][j]; math.Abs(got-want) > budget {
								t.Fatalf("%s/%s budget=%g workers=%d cell (%d,%d): tiered %v vs exact %v exceeds budget",
									app, metric, budget, workers, i, j, got, want)
							}
							if tm.Cells[i][j] != tm.Cells[j][i] {
								t.Fatalf("provenance not mirrored at (%d,%d)", i, j)
							}
						}
					}
					var sum TierStats
					for i := range tm.Cells {
						for j := i + 1; j < len(tm.Cells[i]); j++ {
							sum.add(tm.Cells[i][j])
						}
					}
					if sum != tm.Stats {
						t.Fatalf("sweep stats %+v != cell sum %+v", tm.Stats, sum)
					}
					b := matrixBytes(tm.Values)
					if budget < ted.ScreeningBudget && b != matrixBytes(exact) {
						t.Fatalf("%s/%s budget=%g workers=%d: sub-screening matrix differs from exact",
							app, metric, budget, workers)
					}
					if ref == "" {
						ref, refStats = b, tm.Stats
						continue
					}
					if b != ref {
						t.Fatalf("%s/%s budget=%g: workers=%d bytes differ from workers=%d",
							app, metric, budget, workers, tierWorkerCounts[0])
					}
					if tm.Stats != refStats {
						t.Fatalf("%s/%s budget=%g: workers=%d stats %+v differ from %+v",
							app, metric, budget, workers, tm.Stats, refStats)
					}
				}
			}
		}
	}
}

// TestTierStatsAccounting: engine-cumulative stats accumulate across
// sweeps, the stats line carries the policy and counts, and non-tree
// metrics report zero routed pairs (nothing to tier).
func TestTierStatsAccounting(t *testing.T) {
	idxs, order := buildIndexes(t, "babelstream-fortran")
	policy := ted.TierPolicy{Budget: ted.ScreeningBudget}
	e := NewEngine(2)
	tm, err := e.MatrixTiered(idxs, order, MetricTsem, policy)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TierStats(); got != tm.Stats {
		t.Fatalf("engine stats %+v != sweep stats %+v", got, tm.Stats)
	}
	if _, err := e.MatrixTiered(idxs, order, MetricTsem, policy); err != nil {
		t.Fatal(err)
	}
	if got := e.TierStats(); got.Pairs != 2*tm.Stats.Pairs {
		t.Fatalf("cumulative pairs = %d, want %d", got.Pairs, 2*tm.Stats.Pairs)
	}
	line := e.TierStats().Line(policy)
	for _, want := range []string{"ted tiering", "pairs", "exact", "estimated", "lsh-far", policy.String()} {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line %q missing %q", line, want)
		}
	}

	sloc, err := e.MatrixTiered(idxs, order, MetricSLOC, policy)
	if err != nil {
		t.Fatal(err)
	}
	if sloc.Stats.Pairs != 0 {
		t.Fatalf("SLOC sweep routed %d pairs, want 0", sloc.Stats.Pairs)
	}
	exactSLOC, err := Matrix(idxs, order, MetricSLOC)
	if err != nil {
		t.Fatal(err)
	}
	if matrixBytes(sloc.Values) != matrixBytes(exactSLOC) {
		t.Fatal("non-tree tiered matrix differs from exact")
	}
}
