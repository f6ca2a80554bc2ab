// Package corpus synthesizes the mini-app codebases the evaluation runs on
// (Table II): BabelStream (C++ and Fortran), miniBUDE, TeaLeaf, and
// CloverLeaf, each rendered idiomatically in every programming model the
// paper compares. The real mini-apps are external repositories; the corpus
// reproduces their structure — shared driver code, per-model kernel files,
// model runtime headers — from declarative kernel specifications, so that
// divergence between models comes from exactly the place it comes from in
// the real codebases: how each model's idiom restructures the same kernels.
package corpus

import (
	"fmt"
	"sort"
	"strings"
)

// Model identifies a programming model (including the variants the paper
// treats as distinct: OpenMP vs OpenMP target, SYCL accessors vs USM).
type Model string

// C++ models.
const (
	Serial       Model = "serial"
	OpenMP       Model = "omp"
	OpenMPTarget Model = "omp-target"
	CUDA         Model = "cuda"
	HIP          Model = "hip"
	Kokkos       Model = "kokkos"
	SYCLACC      Model = "sycl-acc"
	SYCLUSM      Model = "sycl-usm"
	StdPar       Model = "std-par"
	TBB          Model = "tbb"
)

// Fortran models.
const (
	FSequential     Model = "f-sequential"
	FArray          Model = "f-array"
	FDoConcurrent   Model = "f-doconcurrent"
	FOpenMP         Model = "f-omp"
	FOpenMPTaskloop Model = "f-omp-taskloop"
	FOpenACC        Model = "f-acc"
	FOpenACCArray   Model = "f-acc-array"
)

// Lang is the implementation language of an app.
type Lang string

// Languages.
const (
	LangCXX     Lang = "c++"
	LangFortran Lang = "fortran"
)

// CXXModels lists the ten C++ models of the evaluation in a stable order.
func CXXModels() []Model {
	return []Model{Serial, OpenMP, OpenMPTarget, CUDA, HIP, Kokkos, SYCLACC, SYCLUSM, StdPar, TBB}
}

// FortranModels lists the seven Fortran BabelStream models.
func FortranModels() []Model {
	return []Model{FSequential, FArray, FDoConcurrent, FOpenMP, FOpenMPTaskloop, FOpenACC, FOpenACCArray}
}

// OffloadModels reports whether a model targets accelerators.
func (m Model) Offload() bool {
	switch m {
	case CUDA, HIP, OpenMPTarget, SYCLACC, SYCLUSM:
		return true
	}
	return false
}

// Param is a kernel parameter.
type Param struct {
	Name  string
	Type  string // scalar type for scalars; element type for arrays
	Const bool   // read-only array
}

// Dim is one parallel loop dimension: for (VAR = LO; VAR < HI; VAR++).
// LO/HI are expressions over the kernel's scalar parameters (C syntax; the
// Fortran renderer uses FLo/FHi when they differ).
type Dim struct {
	Var string
	Lo  string
	Hi  string
}

// Reduction describes a reduction kernel contribution.
type Reduction struct {
	Var  string // result name
	Op   string // "+" or "min"
	Init string // C initial value expression
	Expr string // C expression accumulated per iteration
}

// Kernel is one computational kernel, specified once and rendered into
// every model's idiom.
type Kernel struct {
	Name    string
	Dims    []Dim   // outer parallel dimensions (1 or 2)
	Arrays  []Param // array parameters (element type in Param.Type)
	Scalars []Param // scalar parameters
	// Body holds C statements (using Dim vars, arrays as name[expr],
	// scalars by name). For reductions the body runs before the
	// accumulation.
	Body []string
	// Red is non-nil for reduction kernels.
	Red *Reduction
	// FBody holds the Fortran form (1-based indices, name(expr)).
	FBody []string
	// FArrayForm is the whole-array-syntax form used by the Fortran Array
	// and OpenACC Array variants (empty when the kernel has none).
	FArrayForm []string
	// FRedExpr is the Fortran accumulation expression for reductions.
	FRedExpr string
}

// IsReduction reports whether the kernel reduces to a scalar.
func (k *Kernel) IsReduction() bool { return k.Red != nil }

// App is a mini-app: a named set of kernels plus driver metadata.
type App struct {
	Name    string
	Lang    Lang
	Type    string // runtime characterisation for Table II
	Kernels []Kernel
	// ProblemSizes are the scalar extent parameters shared by the driver
	// (e.g. {"n"} or {"nx", "ny"}).
	ProblemSizes []string
	// DefaultSize is the reduced problem extent used for coverage runs.
	DefaultSize int
	// Iters is the main-loop iteration count.
	Iters int
}

// Unit identifies one translation-unit root within a codebase, tagged with
// the logical role the match function pairs across codebases (Eq. 4/6).
type Unit struct {
	File string
	Role string
}

// Codebase is one generated mini-app × model instance.
type Codebase struct {
	App    string
	Model  Model
	Lang   Lang
	Files  map[string]string // every file, headers included
	Units  []Unit            // translation-unit roots
	System map[string]bool   // true for model/system runtime headers
}

// Source returns a file's content.
func (c *Codebase) Source(name string) string { return c.Files[name] }

// FileNames returns all file names, sorted.
func (c *Codebase) FileNames() []string {
	out := make([]string, 0, len(c.Files))
	for f := range c.Files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// registry is the mini-app registry (Table II) in presentation order,
// keyed by name so a lookup builds only the app it returns.
var registry = []struct {
	name  string
	build func() App
}{
	{"babelstream", BabelStream},
	{"babelstream-fortran", BabelStreamFortran},
	{"minibude", MiniBUDE},
	{"tealeaf", TeaLeaf},
	{"cloverleaf", CloverLeaf},
}

// Apps returns the full mini-app registry (Table II).
func Apps() []App {
	out := make([]App, len(registry))
	for i, r := range registry {
		out[i] = r.build()
	}
	return out
}

// AppByName looks up an app, building only that one.
func AppByName(name string) (App, error) {
	for _, r := range registry {
		if r.name == name {
			return r.build(), nil
		}
	}
	return App{}, fmt.Errorf("corpus: unknown app %q", name)
}

// ModelsFor lists the models an app is implemented in.
func ModelsFor(app App) []Model {
	if app.Lang == LangFortran {
		return FortranModels()
	}
	return CXXModels()
}

// Generate renders the app in the given model.
func Generate(app App, model Model) (*Codebase, error) {
	valid := false
	for _, m := range ModelsFor(app) {
		if m == model {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("corpus: app %q has no model %q", app.Name, model)
	}
	if app.Lang == LangFortran {
		return generateFortran(app, model)
	}
	return generateCXX(app, model)
}

// GenerateAll renders every model of an app, keyed by model.
func GenerateAll(app App) (map[Model]*Codebase, error) {
	out := map[Model]*Codebase{}
	for _, m := range ModelsFor(app) {
		cb, err := Generate(app, m)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s/%s: %w", app.Name, m, err)
		}
		out[m] = cb
	}
	return out, nil
}

// bracketToParen rewrites C-style subscripts name[expr] into call-style
// name(expr) for the given array names — the Kokkos View (and Fortran)
// access idiom. Nested brackets inside the subscript are handled.
func bracketToParen(stmt string, arrays map[string]bool) string {
	var b strings.Builder
	i := 0
	for i < len(stmt) {
		c := stmt[i]
		if !isWordStart(c) {
			b.WriteByte(c)
			i++
			continue
		}
		j := i
		for j < len(stmt) && isWordPart(stmt[j]) {
			j++
		}
		word := stmt[i:j]
		b.WriteString(word)
		i = j
		if !arrays[word] || i >= len(stmt) || stmt[i] != '[' {
			continue
		}
		// rewrite the balanced [...] to (...)
		depth := 0
		for i < len(stmt) {
			switch stmt[i] {
			case '[':
				depth++
				if depth == 1 {
					b.WriteByte('(')
				} else {
					b.WriteByte('[')
				}
			case ']':
				depth--
				if depth == 0 {
					b.WriteByte(')')
				} else {
					b.WriteByte(']')
				}
			default:
				b.WriteByte(stmt[i])
			}
			i++
			if depth == 0 {
				break
			}
		}
	}
	return b.String()
}

func isWordStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordPart(c byte) bool { return isWordStart(c) || (c >= '0' && c <= '9') }

// arraySet builds the array-name lookup for a kernel.
func (k *Kernel) arraySet() map[string]bool {
	out := map[string]bool{}
	for _, a := range k.Arrays {
		out[a.Name] = true
	}
	return out
}
