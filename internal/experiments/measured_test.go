package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
)

func TestSetPhiSourceValidates(t *testing.T) {
	e := NewEnvWorkers(1)
	if e.PhiSource() != PhiSourceModeled {
		t.Fatalf("default phi source = %q, want modeled", e.PhiSource())
	}
	if err := e.SetPhiSource("roofline"); err == nil {
		t.Fatal("bogus phi source accepted")
	}
	if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
		t.Fatal(err)
	}
	if e.PhiSource() != PhiSourceMeasured {
		t.Fatalf("phi source = %q after set", e.PhiSource())
	}
}

func TestMeasuredSetRejectsFortran(t *testing.T) {
	e := NewEnvWorkers(1)
	if _, err := e.MeasuredSet("babelstream-fortran"); err == nil {
		t.Fatal("Fortran app accepted for measured phi")
	}
}

// TestSinglePassProfiling: a sweep touching the same app from several
// figures profiles each port exactly once — the regression gate for the
// one-execution-two-artifacts design — whether the ports are profiled one
// after another or as tasks on a 2-worker pool.
func TestSinglePassProfiling(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := NewEnvWorkers(workers)
			if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
				t.Fatal(err)
			}
			if _, err := e.MeasuredSet("babelstream"); err != nil {
				t.Fatal(err)
			}
			want := int64(len(corpus.CXXModels()))
			if got := e.ProfileRuns(); got != want {
				t.Fatalf("%d profile runs for %d ports", got, want)
			}
			// every further consumer of the same app must hit the cache
			if _, err := e.MeasuredSet("babelstream"); err != nil {
				t.Fatal(err)
			}
			if _, err := e.NavChart("babelstream"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.phiFns("babelstream", e.PhiSource()); err != nil {
				t.Fatal(err)
			}
			if got := e.ProfileRuns(); got != want {
				t.Fatalf("profile runs grew %d → %d: app re-executed within one sweep", want, got)
			}
		})
	}
}

// TestMeasuredNavChartJSON: the chart round-trips as JSON carrying the
// measured provenance, per-platform efficiencies, and cost summaries.
func TestMeasuredNavChartJSON(t *testing.T) {
	e := NewEnvWorkers(1)
	if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
		t.Fatal(err)
	}
	ch, err := e.NavChart("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		App       string   `json:"app"`
		PhiSource string   `json:"phi_source"`
		Platforms []string `json:"platforms"`
		Points    []struct {
			Model string    `json:"model"`
			Phi   float64   `json:"phi"`
			Tsem  float64   `json:"tsem"`
			Effs  []float64 `json:"effs"`
			Cost  *struct {
				Stmts    int64 `json:"stmts"`
				MemBytes int64 `json:"mem_bytes"`
			} `json:"cost"`
		} `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chart JSON does not parse: %v", err)
	}
	if decoded.PhiSource != PhiSourceMeasured {
		t.Fatalf("phi_source = %q", decoded.PhiSource)
	}
	if len(decoded.Platforms) != 6 || len(decoded.Points) != 10 {
		t.Fatalf("chart shape: %d platforms, %d points", len(decoded.Platforms), len(decoded.Points))
	}
	var anyPhi bool
	for _, p := range decoded.Points {
		if len(p.Effs) != len(decoded.Platforms) {
			t.Fatalf("%s: %d effs for %d platforms", p.Model, len(p.Effs), len(decoded.Platforms))
		}
		if p.Cost == nil || p.Cost.Stmts == 0 {
			t.Fatalf("%s: missing measured cost summary", p.Model)
		}
		if p.Phi > 0 {
			anyPhi = true
		}
	}
	if !anyPhi {
		t.Fatal("no point has measured phi > 0")
	}
}

// TestMeasuredDeterministicAcrossWorkers: independently built measured
// charts are bit-identical, as structures and as JSON bytes, for every
// worker count (each port's profile fills its own slot and the set is
// combined in model order; this is the measured leg of the
// matrix-determinism gates, exercised under -race by the tier-1 suite).
func TestMeasuredDeterministicAcrossWorkers(t *testing.T) {
	var ref interface{}
	var refJSON []byte
	for _, workers := range []int{1, 2, 4, 8} {
		e := NewEnvWorkers(workers)
		if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
			t.Fatal(err)
		}
		ch, err := e.NavChart("babelstream")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ch.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refJSON = ch, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(ref, ch) {
			t.Fatalf("measured chart differs at %d workers", workers)
		}
		if !bytes.Equal(refJSON, buf.Bytes()) {
			t.Fatalf("measured chart JSON differs at %d workers", workers)
		}
	}
}

// TestMeasuredFiguresRun: the three performance figures run under the
// measured source and declare their provenance; the modeled default
// stays free of the provenance line.
func TestMeasuredFiguresRun(t *testing.T) {
	rec := obs.NewRecorder()
	e := NewEnvObs(1, rec)
	if err := e.SetPhiSource(PhiSourceMeasured); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig11", "fig14"} {
		res, err := e.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(res.Text, "phi source: measured") {
			t.Errorf("%s: missing measured provenance line", id)
		}
	}
	if rec.Counter("interp.runs").Value() == 0 {
		t.Error("interp.runs counter not recorded during measured figures")
	}
	if rec.Counter("interp.mem_bytes").Value() == 0 {
		t.Error("interp.mem_bytes counter not recorded")
	}

	modeled := NewEnvWorkers(1)
	res, err := modeled.Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "phi source") {
		t.Error("modeled fig11 gained a provenance line (default output must not change)")
	}
}
