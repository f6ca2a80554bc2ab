package corpus

import (
	"reflect"
	"strings"
	"testing"

	"silvervale/internal/interp"
	"silvervale/internal/minic"
	"silvervale/internal/minifortran"
)

// providerFor adapts a codebase to the preprocessor's FileProvider.
func providerFor(cb *Codebase) *minic.MapProvider {
	return &minic.MapProvider{Files: cb.Files, System: cb.System}
}

// parseUnitOf preprocesses and parses one unit of a C++ codebase.
func parseUnitOf(t *testing.T, cb *Codebase, file string) *minic.ASTNode {
	t.Helper()
	pp := minic.NewPreprocessor(providerFor(cb), nil)
	res, err := pp.Preprocess(file)
	if err != nil {
		t.Fatalf("%s/%s %s: preprocess: %v", cb.App, cb.Model, file, err)
	}
	unit, err := minic.ParseUnit(res.Text, file)
	if err != nil {
		t.Fatalf("%s/%s %s: parse: %v\n--- preprocessed source ---\n%s",
			cb.App, cb.Model, file, err, numberLines(res.Text))
	}
	minic.ApplyLineOrigins(unit, res.LineOrigin)
	return unit
}

func numberLines(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(itoa(i+1) + ": " + l + "\n")
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	if neg {
		return "-" + string(d)
	}
	return string(d)
}

// TestEveryCodebaseParses is the backbone integrity test: every generated
// app × model × unit must preprocess and parse cleanly.
func TestEveryCodebaseParses(t *testing.T) {
	for _, app := range Apps() {
		for _, model := range ModelsFor(app) {
			cb, err := Generate(app, model)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, model, err)
			}
			for _, u := range cb.Units {
				if cb.Lang == LangFortran {
					if _, err := minifortran.ParseUnit(cb.Source(u.File), u.File); err != nil {
						t.Errorf("%s/%s %s: %v\n%s", app.Name, model, u.File, err,
							numberLines(cb.Source(u.File)))
					}
					continue
				}
				parseUnitOf(t, cb, u.File)
			}
		}
	}
}

func TestRegistryShape(t *testing.T) {
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("apps = %d, want 5 (Table II)", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
	}
	for _, want := range []string{"babelstream", "babelstream-fortran", "minibude", "tealeaf", "cloverleaf"} {
		if !names[want] {
			t.Errorf("missing app %q", want)
		}
	}
	if len(CXXModels()) != 10 {
		t.Fatalf("C++ models = %d, want 10", len(CXXModels()))
	}
	if len(FortranModels()) != 7 {
		t.Fatalf("Fortran models = %d, want 7", len(FortranModels()))
	}
}

func TestModelsDiffer(t *testing.T) {
	app, _ := AppByName("babelstream")
	all, err := GenerateAll(app)
	if err != nil {
		t.Fatal(err)
	}
	serial := all[Serial].Source("kernels.cpp")
	for m, cb := range all {
		if m == Serial {
			continue
		}
		var kf string
		for _, u := range cb.Units {
			if u.Role == "kernels" {
				kf = cb.Source(u.File)
			}
		}
		if kf == serial {
			t.Errorf("model %s kernels identical to serial", m)
		}
	}
}

// TestSerialAppsRunAndValidate executes the serial port of every C++ app in
// the interpreter and requires the built-in verification to pass — the
// paper's artefact-evaluation requirement that "each mini-app contains
// built-in verification for correctness".
func TestSerialAppsRunAndValidate(t *testing.T) {
	for _, app := range Apps() {
		if app.Lang != LangCXX {
			continue
		}
		cb, err := Generate(app, Serial)
		if err != nil {
			t.Fatal(err)
		}
		// interpret the combined unit: kernels first, then main
		pp := minic.NewPreprocessor(providerFor(cb), nil)
		combined := "#include \"kernels_src\"\n#include \"main_src\"\n"
		cb.Files["kernels_src"] = cb.Source("kernels.cpp")
		cb.Files["main_src"] = cb.Source("main.cpp")
		cb.Files["combined.cpp"] = combined
		res, err := pp.Preprocess("combined.cpp")
		if err != nil {
			t.Fatalf("%s: preprocess: %v", app.Name, err)
		}
		unit, err := minic.ParseUnit(res.Text, "combined.cpp")
		if err != nil {
			t.Fatalf("%s: parse: %v", app.Name, err)
		}
		minic.ApplyLineOrigins(unit, res.LineOrigin)
		out, err := interp.Run(unit, interp.Options{})
		if err != nil {
			t.Fatalf("%s: run: %v", app.Name, err)
		}
		joined := strings.Join(out.Output, "\n")
		if !strings.Contains(joined, "Validation PASSED") {
			t.Fatalf("%s: verification failed: exit=%v output=%q",
				app.Name, out.Exit, joined)
		}
		if out.Exit.AsInt() != 0 {
			t.Fatalf("%s: nonzero exit %v", app.Name, out.Exit)
		}
	}
}

func TestCoverageRunProducesMask(t *testing.T) {
	app, _ := AppByName("babelstream")
	cb, _ := Generate(app, Serial)
	pp := minic.NewPreprocessor(providerFor(cb), nil)
	cb.Files["combined.cpp"] = "#include \"kernels.cpp\"\n#include \"main.cpp\"\n"
	res, err := pp.Preprocess("combined.cpp")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := minic.ParseUnit(res.Text, "combined.cpp")
	if err != nil {
		t.Fatal(err)
	}
	minic.ApplyLineOrigins(unit, res.LineOrigin)
	out, err := interp.Run(unit, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Coverage.CountLive() == 0 {
		t.Fatal("coverage empty")
	}
	files := out.Coverage.Files()
	foundKernels := false
	for _, f := range files {
		if f == "kernels.cpp" {
			foundKernels = true
		}
	}
	if !foundKernels {
		t.Fatalf("coverage must attribute lines to original files, got %v", files)
	}
}

func TestFortranModelsHaveDirectives(t *testing.T) {
	app, _ := AppByName("babelstream-fortran")
	cases := map[Model]string{
		FOpenMP:         "!$omp parallel do",
		FOpenMPTaskloop: "!$omp taskloop",
		FOpenACC:        "!$acc parallel loop",
		FOpenACCArray:   "!$acc kernels",
		FDoConcurrent:   "do concurrent",
	}
	for model, marker := range cases {
		cb, err := Generate(app, model)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(cb.Source("kernels.f90"), marker) {
			t.Errorf("%s: marker %q missing", model, marker)
		}
	}
	arr, _ := Generate(app, FArray)
	if !strings.Contains(arr.Source("kernels.f90"), "a = b + scalar * c") {
		t.Error("array variant must use whole-array syntax")
	}
}

func TestCUDAUsesLaunchChevrons(t *testing.T) {
	app, _ := AppByName("tealeaf")
	cb, _ := Generate(app, CUDA)
	src := cb.Source("kernels.cu")
	if !strings.Contains(src, "<<<") || !strings.Contains(src, "__global__") {
		t.Fatal("CUDA idiom missing")
	}
	if !strings.Contains(src, "__shared__ double smem") {
		t.Fatal("CUDA block reduction boilerplate missing")
	}
	hip, _ := Generate(app, HIP)
	if !strings.Contains(hip.Source("kernels.hip.cpp"), "hipLaunchKernelGGL") {
		t.Fatal("HIP launch idiom missing")
	}
}

func TestSYCLHeaderIsHeavy(t *testing.T) {
	app, _ := AppByName("babelstream")
	cb, _ := Generate(app, SYCLACC)
	if len(cb.Source("sycl/sycl.hpp")) < 2000 {
		t.Fatal("sycl header suspiciously small")
	}
	if cb.System["sycl/sycl.hpp"] {
		t.Fatal("model headers must not be flagged system")
	}
	if !cb.System["vector"] {
		t.Fatal("std headers must be flagged system")
	}
}

func TestOffloadClassification(t *testing.T) {
	for _, m := range []Model{CUDA, HIP, OpenMPTarget, SYCLACC, SYCLUSM} {
		if !m.Offload() {
			t.Errorf("%s should be offload", m)
		}
	}
	for _, m := range []Model{Serial, OpenMP, Kokkos, StdPar, TBB} {
		if m.Offload() {
			t.Errorf("%s should not be offload", m)
		}
	}
}

func TestBracketToParen(t *testing.T) {
	arrays := map[string]bool{"a": true, "b": true}
	got := bracketToParen("a[i] = b[j * nx + i] + c[i];", arrays)
	want := "a(i) = b(j * nx + i) + c[i];"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	// nested subscripts
	got = bracketToParen("a[b[i]] = 1.0;", arrays)
	if got != "a(b[i]) = 1.0;" && got != "a(b(i)) = 1.0;" {
		t.Fatalf("nested: %q", got)
	}
}

func TestUnknownApp(t *testing.T) {
	_, err := AppByName("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	if want := `corpus: unknown app "nope"`; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestAppByNameMatchesRegistry: every registry key builds the app of that
// name, identical to the one Apps lists.
func TestAppByNameMatchesRegistry(t *testing.T) {
	for _, want := range Apps() {
		got, err := AppByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppByName(%q) differs from the Apps entry", want.Name)
		}
	}
}
