// Package silvervale is a Go reproduction of "A Metric for HPC Programming
// Model Productivity" (Lin, Deakin, McIntosh-Smith — SC 2024): the TBMD
// (Tree-Based Model Divergence) productivity metric, the SilverVale
// analysis pipeline around it, and the combined productivity ×
// performance-portability navigation charts.
//
// The package is a facade over the internal pipeline:
//
//	cb, _ := silvervale.Generate("tealeaf", silvervale.CUDA)
//	idx, _ := silvervale.IndexCodebase(cb, silvervale.IndexOptions{})
//	base, _ := silvervale.Generate("tealeaf", silvervale.Serial)
//	bidx, _ := silvervale.IndexCodebase(base, silvervale.IndexOptions{})
//	d, _ := silvervale.Diverge(bidx, idx, silvervale.MetricTsem)
//	fmt.Printf("T_sem divergence from serial: %.3f\n", d.Norm)
//
// See DESIGN.md for the system inventory and the per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package silvervale

import (
	"silvervale/internal/cluster"
	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/coverage"
	"silvervale/internal/experiments"
	"silvervale/internal/navchart"
	"silvervale/internal/perf"
	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// Re-exported types. The aliases keep the public API surface in one place
// while the implementation lives in focused internal packages.
type (
	// App is a mini-app specification (Table II).
	App = corpus.App
	// Model identifies a programming model or model variant.
	Model = corpus.Model
	// Codebase is one generated mini-app × model instance.
	Codebase = corpus.Codebase
	// Index is the indexed (tree-extracted) form of a codebase.
	Index = core.Index
	// IndexOptions configures indexing (coverage masks, system headers).
	IndexOptions = core.Options
	// Divergence is a TBMD comparison result (raw, dmax, normalised).
	Divergence = core.Divergence
	// Platform is one hardware platform of Table III.
	Platform = perf.Platform
	// NavChart is a combined Φ × TBMD navigation chart.
	NavChart = navchart.Chart
	// CoverageProfile is a runtime line-coverage profile.
	CoverageProfile = coverage.Profile
	// Dendrogram is a hierarchical clustering tree.
	Dendrogram = cluster.Node
	// Engine is the concurrent divergence engine: a bounded worker pool
	// plus a shared content-addressed TED cache. It produces exactly the
	// same numbers as the one-shot functions.
	Engine = core.Engine
	// TEDCache is the concurrency-safe content-addressed TED memo.
	TEDCache = ted.Cache
	// TEDCacheStats is a snapshot of cache effectiveness counters.
	TEDCacheStats = ted.CacheStats
	// TreeFingerprint is the stable structural hash (content address)
	// cache keys are built from.
	TreeFingerprint = tree.Fingerprint
	// ArtifactStore is the persistent content-addressed artifact store:
	// cross-run warm starts for TED distances and codebase indexes.
	ArtifactStore = store.Store
	// ArtifactStoreStats is a snapshot of store traffic counters.
	ArtifactStoreStats = store.Stats
	// ArtifactStoreOptions configures OpenArtifactStoreWith: readonly
	// mode, strict fault handling, the degrade threshold, and an
	// injectable filesystem (see internal/faultfs and DESIGN.md §9).
	ArtifactStoreOptions = store.Options
)

// C++ programming models.
const (
	Serial       = corpus.Serial
	OpenMP       = corpus.OpenMP
	OpenMPTarget = corpus.OpenMPTarget
	CUDA         = corpus.CUDA
	HIP          = corpus.HIP
	Kokkos       = corpus.Kokkos
	SYCLACC      = corpus.SYCLACC
	SYCLUSM      = corpus.SYCLUSM
	StdPar       = corpus.StdPar
	TBB          = corpus.TBB
)

// Fortran programming models.
const (
	FSequential     = corpus.FSequential
	FArray          = corpus.FArray
	FDoConcurrent   = corpus.FDoConcurrent
	FOpenMP         = corpus.FOpenMP
	FOpenMPTaskloop = corpus.FOpenMPTaskloop
	FOpenACC        = corpus.FOpenACC
	FOpenACCArray   = corpus.FOpenACCArray
)

// Metric identifiers (Table I).
const (
	MetricSLOC     = core.MetricSLOC
	MetricLLOC     = core.MetricLLOC
	MetricSource   = core.MetricSource
	MetricSourcePP = core.MetricSourcePP
	MetricTsrc     = core.MetricTsrc
	MetricTsrcPP   = core.MetricTsrcPP
	MetricTsem     = core.MetricTsem
	MetricTsemI    = core.MetricTsemI
	MetricTir      = core.MetricTir
)

// Apps returns the mini-app registry (Table II).
func Apps() []App { return corpus.Apps() }

// Metrics lists every metric identifier in Table I order.
func Metrics() []string { return core.Metrics() }

// ModelsFor lists the models an app is implemented in.
func ModelsFor(app App) []Model { return corpus.ModelsFor(app) }

// Generate renders a mini-app in one programming model.
func Generate(appName string, model Model) (*Codebase, error) {
	app, err := corpus.AppByName(appName)
	if err != nil {
		return nil, err
	}
	return corpus.Generate(app, model)
}

// IndexCodebase extracts the semantic-bearing trees and perceived metrics
// from a codebase.
func IndexCodebase(cb *Codebase, opts IndexOptions) (*Index, error) {
	return core.IndexCodebase(cb, opts)
}

// Diverge computes the divergence of codebase b from codebase a under the
// named metric (Eq. 4–7).
func Diverge(a, b *Index, metric string) (Divergence, error) {
	return core.Diverge(a, b, metric)
}

// NewEngine returns a concurrent divergence engine with the given worker
// bound (<= 0 selects runtime.NumCPU()) and a fresh shared TED cache.
// Reuse one engine across Diverge/Matrix/FromBase sweeps so repeated tree
// pairs are answered from the memo.
func NewEngine(workers int) *Engine { return core.NewEngine(workers) }

// OpenArtifactStore opens (creating on first use) a persistent artifact
// store rooted at dir. Every put commits before it returns; Close stops
// further writes.
func OpenArtifactStore(dir string, readonly bool) (*ArtifactStore, error) {
	return store.Open(dir, store.Options{Readonly: readonly})
}

// OpenArtifactStoreWith opens an artifact store with full options —
// notably Strict (the first I/O fault surfaces from Close instead of
// degrading to memory-only) and FS (a faultfs filesystem, for fault
// injection in tests).
func OpenArtifactStoreWith(dir string, opts ArtifactStoreOptions) (*ArtifactStore, error) {
	return store.Open(dir, opts)
}

// NewEngineWithStore returns a divergence engine whose TED cache and
// indexing pipeline warm-start from (and persist into) an artifact store.
// Results are always identical to a store-less engine; the caller owns the
// store and must Close it.
func NewEngineWithStore(workers int, st *ArtifactStore) *Engine {
	return core.NewEngineStore(workers, ted.NewCache(), nil, st)
}

// DivergenceMatrix computes the pairwise normalised divergence matrix over
// the given model order.
func DivergenceMatrix(idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	return core.Matrix(idxs, order, metric)
}

// DivergenceFromBase computes every model's divergence from one base model.
func DivergenceFromBase(idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	return core.FromBase(idxs, base, order, metric)
}

// RunCoverage executes a serial codebase in the bundled interpreter on its
// reduced problem size and returns the line-coverage profile for the
// +coverage metric variants.
func RunCoverage(cb *Codebase) (*CoverageProfile, error) {
	return core.RunCoverage(cb)
}

// Cluster builds a complete-linkage dendrogram from a divergence matrix.
func Cluster(labels []string, matrix [][]float64) (*Dendrogram, error) {
	return cluster.Agglomerate(labels, cluster.EuclideanFromMatrix(matrix))
}

// RenderDendrogram draws a dendrogram as text.
func RenderDendrogram(root *Dendrogram) string { return cluster.Render(root) }

// Platforms returns the six benchmark platforms of Table III.
func Platforms() []Platform { return perf.Platforms() }

// Phi computes the Pennycook performance-portability metric of (app,
// model) over a platform set.
func Phi(app string, model Model, plats []Platform) float64 {
	return perf.AppPhi(app, model, plats)
}

// NavigationChart joins divergence-from-serial with Φ over a platform set
// (Fig. 13/14).
func NavigationChart(app string, tsem, tsrc map[string]float64, models []Model, plats []Platform) *NavChart {
	return navchart.Build(app, "serial", tsem, tsrc, models, plats)
}

// RunExperiment regenerates one of the paper's tables or figures by id
// (table1..table3, fig1, fig4..fig15) and returns its rendered report.
func RunExperiment(id string) (string, error) {
	res, err := experiments.NewEnv().Run(id)
	if err != nil {
		return "", err
	}
	return res.Title + "\n\n" + res.Text, nil
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string { return experiments.IDs() }
