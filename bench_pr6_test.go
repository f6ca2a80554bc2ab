// Bench trajectory emitter (PR 6): one `go test -bench` invocation that
// measures the tiered divergence engine on the corpus-scale sweep the
// tiering exists for — the all-pairs unit matrix over every unit tree of
// every app × model in the seed corpus (the near-duplicate screening
// workload). Three claims are measured and written to JSON:
//
//  1. equal-corpus speedup: the screening-budget tiered sweep covers the
//     same M-unit corpus in a fraction of the exact sweep's wall-clock;
//  2. equivalence: the budget-0 tiered sweep is bit-identical to exact;
//  3. error: every cell's |tiered − exact| over the full corpus stays
//     within the screening budget (hard assert).
//
// Run with (see EXPERIMENTS.md §Bench trajectory):
//
//	SILVERVALE_BENCH_JSON=BENCH_PR6.json \
//	  go test -run '^$' -bench '^BenchmarkPR6Trajectory$' -timeout 40m .
//
// Without SILVERVALE_BENCH_JSON set the benchmark skips, so plain
// `go test -bench .` sweeps are not slowed down. The committed
// BENCH_PR6.json also carries a "fidelity" leg (budget 0.05) from before
// sub-screening budgets ran the exact sweep; this emitter no longer
// writes it.
package silvervale

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/ted"
)

type pr6Bench struct {
	benchTiming
	Units int `json:"units"`
	Cells int `json:"cells"`
}

// pr6Sweep reports one tiered full-corpus sweep against the exact
// reference: wall-clock speedup, the worst and mean per-cell error, and
// the tier routing split.
type pr6Sweep struct {
	Budget        float64 `json:"budget"`
	Policy        string  `json:"policy"`
	NsPerOp       int64   `json:"ns_per_op"`
	Speedup       float64 `json:"speedup_vs_exact"`
	MaxCellError  float64 `json:"max_cell_error"`
	MeanCellError float64 `json:"mean_cell_error"`
	TierPairs     uint64  `json:"tier_pairs"`
	TierExact     uint64  `json:"tier_exact"`
	TierEstimated uint64  `json:"tier_estimated"`
	TierFar       uint64  `json:"tier_far"`
}

type pr6Trajectory struct {
	PR        int    `json:"pr"`
	GoVersion string `json:"go"`
	NumCPU    int    `json:"num_cpu"`
	Metric    string `json:"metric"`
	Units     int    `json:"units"`
	Cells     int    `json:"cells"`

	ExactNs          int64    `json:"exact_ns"`
	Screening        pr6Sweep `json:"screening"`
	Budget0Identical bool     `json:"budget0_bit_identical"`

	// UnitsRatioEqualWallclock is derived from the screening speedup: the
	// exact engine's all-pairs cost is ~quadratic in unit count, so at
	// the tiered sweep's wall-clock the exact sweep handles M/√speedup
	// units — the tiered sweep holds √speedup× more units per sweep.
	UnitsRatioEqualWallclock float64 `json:"units_ratio_equal_wallclock"`

	Benchmarks []pr6Bench `json:"benchmarks"`
}

// pr6Units builds the corpus-scale unit population: every unit of every
// app × model wrapped as a single-unit Index under one shared role, so
// the engine's matrix sweep pairs all of them — the all-pairs
// near-duplicate workload. Order is the deterministic corpus iteration
// order.
func pr6Units(b testing.TB) (map[string]*core.Index, []string) {
	b.Helper()
	idxs := map[string]*core.Index{}
	var order []string
	for _, app := range corpus.Apps() {
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				b.Fatal(err)
			}
			idx, err := core.IndexCodebase(cb, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := range idx.Units {
				u := idx.Units[i]
				if u.Trees[core.MetricTsem] == nil {
					continue
				}
				u.Role = "unit" // one shared role: match() pairs every unit
				name := fmt.Sprintf("%s/%s/%s", app.Name, m, u.File)
				idxs[name] = &core.Index{
					Codebase: app.Name, Model: string(m), Lang: idx.Lang,
					Units: []core.UnitIndex{u},
				}
				order = append(order, name)
			}
		}
	}
	return idxs, order
}

func pr6Errors(tiered, exact [][]float64) (maxErr, meanErr float64) {
	var sum float64
	var cells int
	for i := range exact {
		for j := range exact[i] {
			if i == j {
				continue
			}
			e := math.Abs(tiered[i][j] - exact[i][j])
			if e > maxErr {
				maxErr = e
			}
			sum += e
			cells++
		}
	}
	return maxErr, sum / float64(cells)
}

func BenchmarkPR6Trajectory(b *testing.B) {
	out := benchJSONPath(b)
	idxs, order := pr6Units(b)
	m := len(order)

	// Shared direct measurement scheme (benchMeasure). Every sweep starts
	// from a fresh cache: the workload is one cold corpus pass.
	measure := func(name string, units []string, fn func() [][]float64) (pr6Bench, [][]float64) {
		var vals [][]float64
		t := benchMeasure(name, 1, func(int) { vals = fn() })
		return pr6Bench{
			benchTiming: t,
			Units:       len(units),
			Cells:       len(units) * (len(units) - 1) / 2,
		}, vals
	}
	tieredSweep := func(name string, budget float64) (pr6Bench, pr6Sweep, [][]float64) {
		policy := ted.TierPolicy{Budget: budget}
		e := core.NewEngine(0)
		var stats core.TierStats
		bench, vals := measure(name, order, func() [][]float64 {
			tm, err := e.MatrixTiered(idxs, order, core.MetricTsem, policy)
			if err != nil {
				b.Fatal(err)
			}
			stats = tm.Stats
			return tm.Values
		})
		return bench, pr6Sweep{
			Budget: budget, Policy: policy.String(), NsPerOp: bench.NsPerOp,
			TierPairs: stats.Pairs, TierExact: stats.Exact,
			TierEstimated: stats.Estimated, TierFar: stats.Far,
		}, vals
	}

	traj := pr6Trajectory{
		PR: 6, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Metric: core.MetricTsem, Units: m, Cells: m * (m - 1) / 2,
	}

	// 1. Exact all-pairs reference over the full corpus.
	exactFull, exactM := measure("ExactFullCorpus", order, func() [][]float64 {
		vals, err := core.NewEngine(0).Matrix(idxs, order, core.MetricTsem)
		if err != nil {
			b.Fatal(err)
		}
		return vals
	})
	traj.ExactNs = exactFull.NsPerOp

	// 2. Screening-budget tiered sweep — the equal-corpus speedup claim,
	// with every cell's error hard-checked against the budget.
	screenBench, screen, screenM := tieredSweep("TieredScreening", ted.ScreeningBudget)
	screen.Speedup = float64(exactFull.NsPerOp) / float64(screen.NsPerOp)
	screen.MaxCellError, screen.MeanCellError = pr6Errors(screenM, exactM)
	if screen.MaxCellError > ted.ScreeningBudget {
		b.Fatalf("screening sweep: max cell error %v exceeds budget %v", screen.MaxCellError, ted.ScreeningBudget)
	}
	traj.Screening = screen
	traj.UnitsRatioEqualWallclock = math.Sqrt(screen.Speedup)

	// 3. Budget-0 tiered sweep on a base slice — must be bit-identical.
	base := order[:m/10]
	exactBase, exactBaseM := measure("ExactBase", base, func() [][]float64 {
		vals, err := core.NewEngine(0).Matrix(idxs, base, core.MetricTsem)
		if err != nil {
			b.Fatal(err)
		}
		return vals
	})
	zeroBench, zeroM := measure("TieredBaseBudget0", base, func() [][]float64 {
		tm, err := core.NewEngine(0).MatrixTiered(idxs, base, core.MetricTsem, ted.TierPolicy{})
		if err != nil {
			b.Fatal(err)
		}
		return tm.Values
	})
	traj.Budget0Identical = benchSameBits(exactBaseM, zeroM)
	if !traj.Budget0Identical {
		b.Fatal("budget-0 tiered matrix differs from exact")
	}

	traj.Benchmarks = []pr6Bench{exactFull, screenBench, exactBase, zeroBench}
	benchWriteTrajectory(b, out, traj)
	b.Logf("bench trajectory written to %s (screening %.1fx speedup at budget %g, max err %.3f)",
		out, screen.Speedup, ted.ScreeningBudget, screen.MaxCellError)
}
