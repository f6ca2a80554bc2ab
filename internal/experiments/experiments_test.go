package experiments

import (
	"math"
	"strings"
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/ted"
)

// The heavy clustering figures (fig4/5/6 full cartesian matrices) are
// exercised by the benchmark harness; these tests cover the experiment
// plumbing plus the cheap figures end to end.

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("ids = %d, want 18 (3 tables + 13 figures + 2 ablations)", len(ids))
	}
}

func TestAblationExperiments(t *testing.T) {
	env := NewEnv()
	costs, err := env.Run("ablation-costs")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"insert x2", "delete x2", "sycl-acc"} {
		if !strings.Contains(costs.Text, want) {
			t.Errorf("ablation-costs missing %q", want)
		}
	}
	approx, err := env.Run("ablation-approx")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(approx.Text, "pq-gram") {
		t.Error("ablation-approx malformed")
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := NewEnv().Run("fig99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTables(t *testing.T) {
	env := NewEnv()
	t1, err := env.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SLOC", "T_sem", "Relative (TED)", "Semantic"} {
		if !strings.Contains(t1.Text, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
	t2, err := env.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"babelstream", "tealeaf", "cloverleaf", "minibude", "sycl-acc"} {
		if !strings.Contains(t2.Text, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
	t3, err := env.Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"H100", "MI250X", "PVC", "Graviton"} {
		if !strings.Contains(t3.Text, want) {
			t.Errorf("table3 missing %q", want)
		}
	}
}

func TestFig1(t *testing.T) {
	r, err := NewEnv().Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "TED distance = 5") {
		t.Fatalf("fig1 distance wrong:\n%s", r.Text)
	}
}

func TestCascadeFigures(t *testing.T) {
	env := NewEnv()
	for _, id := range []string{"fig11", "fig12"} {
		r, err := env.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"cuda", "kokkos", "phi", "best-1"} {
			if !strings.Contains(r.Text, want) {
				t.Errorf("%s missing %q:\n%s", id, want, r.Text)
			}
		}
	}
}

func TestFig15Scenario(t *testing.T) {
	r, err := NewEnv().Run("fig15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "phi = 0.000") {
		t.Errorf("fig15 must show CUDA collapsing to zero:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "recommended landing point 3: hip") {
		// HIP is the natural Fig. 15 landing point: near-CUDA semantics and
		// full phi on the two-vendor set
		t.Errorf("fig15 recommendation unexpected:\n%s", r.Text)
	}
}

func TestMigrationFigures(t *testing.T) {
	env := NewEnv()
	r9, err := env.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	r10, err := env.Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r9.Text, "omp-target") || !strings.Contains(r10.Text, "hip") {
		t.Error("migration figures incomplete")
	}
	if !strings.Contains(r10.Text, "(from cuda)") {
		t.Error("fig10 must diverge from CUDA")
	}
}

func TestHeatmapFigure(t *testing.T) {
	env := NewEnv()
	r, err := env.Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tsem", "tsem+i", "source+pp", "sycl-acc"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("fig7 missing %q", want)
		}
	}
}

func TestFortranDendrograms(t *testing.T) {
	env := NewEnv()
	r, err := env.Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"f-acc", "f-doconcurrent", "tsem", "sloc"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("fig6 missing %q:\n%s", want, r.Text)
		}
	}
}

// TestEnvMatrixKeepsPoliciesApart: the environment keeps no matrices of
// its own, so the engine's cell key alone must keep tier policies apart.
// One Env answers the same matrix exact, at the screening budget, below
// it, and exact again; each answer must be bit-identical to a fresh
// engine's under that policy.
func TestEnvMatrixKeepsPoliciesApart(t *testing.T) {
	const app, metric = "babelstream-fortran", core.MetricTsem
	env := NewEnvWorkers(2)
	idxs, order, err := env.Indexes(app)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.NewEngine(2).Matrix(idxs, order, metric)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name   string
		policy *ted.TierPolicy // nil: the Env's default exact sweep
	}{
		{"exact", nil},
		{"budget 0.5", &ted.TierPolicy{Budget: ted.ScreeningBudget}},
		{"budget 0.2", &ted.TierPolicy{Budget: 0.2}},
		{"exact again", &ted.TierPolicy{}},
	}
	for _, s := range steps {
		want := exact
		if s.policy != nil {
			env.SetTierPolicy(*s.policy)
			tm, err := core.NewEngine(2).MatrixTiered(idxs, order, metric, *s.policy)
			if err != nil {
				t.Fatal(err)
			}
			want = tm.Values
			if s.policy.Enabled() && sameBits(want, exact) {
				t.Fatalf("%s: screening matrix equals the exact one; the test proves nothing", s.name)
			}
		}
		got, _, err := env.Matrix(app, metric)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: Env matrix differs from a fresh engine's\ngot:  %v\nwant: %v", s.name, got, want)
		}
	}
}

// sameBits reports whether two matrices are bit-identical.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
