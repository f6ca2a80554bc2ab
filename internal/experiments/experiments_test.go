package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
}

// TestGoldenAblationApprox pins the full text of ablation-approx, the
// paper's §VII pq-gram mode, in the block `silvervale experiment` prints
// for it. Its pq-gram column reads the cache's per-tree profile memo, so
// a change to how profiles are built or looked up shows here byte for
// byte.
func TestGoldenAblationApprox(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "ablation_approx.golden"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEnvWorkers(2).Run("ablation-approx")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("==== %s: %s ====\n%s\n", res.ID, res.Title, res.Text); got != string(want) {
		t.Fatalf("ablation-approx drifted from its golden\ngot:\n%s\nwant:\n%s", got, want)
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
