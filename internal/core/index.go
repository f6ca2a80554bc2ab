// Package core implements the paper's primary contribution: the Tree-Based
// Model Divergence (TBMD) metric and its surrounding pipeline — indexing a
// codebase into semantic-bearing trees (T_src, T_sem, T_sem+i, T_ir) plus
// the perceived metrics (SLOC, LLOC, Source), and computing relative
// divergences between codebases per Eq. (2)–(7).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"silvervale/internal/corpus"
	"silvervale/internal/coverage"
	"silvervale/internal/interp"
	"silvervale/internal/ir"
	"silvervale/internal/minic"
	"silvervale/internal/minifortran"
	"silvervale/internal/obs"
	"silvervale/internal/sloc"
	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// Metric identifiers (rows of Table I plus the pp variants).
const (
	MetricSLOC     = "sloc"
	MetricLLOC     = "lloc"
	MetricSource   = "source"
	MetricSourcePP = "source+pp"
	MetricTsrc     = "tsrc"
	MetricTsrcPP   = "tsrc+pp"
	MetricTsem     = "tsem"
	MetricTsemI    = "tsem+i"
	MetricTir      = "tir"
)

// Metrics lists all metric identifiers in Table I order.
func Metrics() []string {
	return []string{
		MetricSLOC, MetricLLOC, MetricSource, MetricSourcePP,
		MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir,
	}
}

// TreeMetrics lists the tree-based TBMD metrics.
func TreeMetrics() []string {
	return []string{MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir}
}

// isTreeMetric reports whether metric is one of TreeMetrics.
func isTreeMetric(metric string) bool {
	switch metric {
	case MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir:
		return true
	}
	return false
}

// UnitIndex is the indexed form of one unit (Eq. 1: source file plus
// dependencies).
type UnitIndex struct {
	File string
	Role string

	SLOC int
	LLOC int

	SourceLines   []string // normalised lines of the unit (pre-preprocessor)
	SourceLinesPP []string // after preprocessing (macro expansion, includes)

	// LineFiles/LineNums attribute each entry of SourceLines back to its
	// original file and line, enabling the +coverage variants of the
	// perceived metrics.
	LineFiles []string
	LineNums  []int

	Trees map[string]*tree.Node // tsrc, tsrc+pp, tsem, tsem+i, tir

	// Incremental-recomputation keys (DESIGN.md §12). Deps is every file
	// whose content this unit's indexed form depends on — the root plus
	// the full spliced include closure in first-include order, system
	// files included (their macros expand into the unit). MissingDeps are
	// include targets that did not resolve; a file appearing under one of
	// those names would change the preprocess result, so their continued
	// absence is part of the key. SrcHash is the content hash over all of
	// them — the frontend-reuse key: an incremental reindex reuses this
	// unit verbatim exactly when the hash recomputed over the new file set
	// matches.
	Deps        []string
	MissingDeps []string
	SrcHash     store.ContentHash

	// FPs memoises each tree's content fingerprint; LinesHash and
	// LinesPPHash address the normalised line sets. All are filled by the
	// indexing pipeline (and restored by IndexFromDB); hand-built units
	// may leave them zero, in which case consumers recompute on the fly.
	FPs         map[string]tree.Fingerprint
	LinesHash   store.ContentHash
	LinesPPHash store.ContentHash
}

// TreeFingerprint returns the content fingerprint of the unit's tree under
// a metric, preferring the memoised value recorded at index time.
func (u *UnitIndex) TreeFingerprint(metric string) tree.Fingerprint {
	if fp, ok := u.FPs[metric]; ok {
		return fp
	}
	return u.Trees[metric].Fingerprint()
}

// treeSize returns the node count of the unit's tree under a metric, read
// from its fingerprint so a memoised unit costs no tree walk.
func (u *UnitIndex) treeSize(metric string) int {
	return int(u.TreeFingerprint(metric).Size)
}

// sourceHash returns the content hash of the unit's normalised line set
// (pre- or post-preprocessor), preferring the memoised value.
func (u *UnitIndex) sourceHash(pp bool) store.ContentHash {
	if pp {
		if u.LinesPPHash != (store.ContentHash{}) {
			return u.LinesPPHash
		}
		return linesHash(u.SourceLinesPP)
	}
	if u.LinesHash != (store.ContentHash{}) {
		return u.LinesHash
	}
	return linesHash(u.SourceLines)
}

// Index is the indexed form of a whole codebase.
type Index struct {
	Codebase string
	Model    string
	Lang     corpus.Lang
	// Opts is the digest of the Options the index was built under
	// (Options.Digest). Incremental reuse and the store's index tier both
	// require it to match before any cached unit is served.
	Opts  store.ContentHash
	Units []UnitIndex
}

// Options configures indexing.
type Options struct {
	// Coverage, when set, masks every tree and line set down to executed
	// regions (the +coverage variants of Table I).
	Coverage *coverage.Profile
	// KeepSystemHeaders includes true system headers in the unit instead
	// of masking them out during analysis.
	KeepSystemHeaders bool
	// Workers bounds the worker pool that indexes units concurrently.
	// 0 (the default) selects runtime.NumCPU(); 1 forces the serial path.
	// The result is identical for every value: units are written into
	// their input slots and sorted afterwards, so scheduling never leaks
	// into the output.
	Workers int
	// Recorder, when set, records per-unit pipeline spans (preprocess,
	// lex, parse, sem, inline, IR lowering) and counters. nil disables
	// observability at no hot-path cost.
	Recorder *obs.Recorder
}

// ResolvedWorkers returns the worker count indexing will actually use:
// Workers clamped per ResolveWorkers (<= 0 or above NumCPU resolve to
// NumCPU).
func (o Options) ResolvedWorkers() int { return ResolveWorkers(o.Workers) }

// IndexCodebase runs the full extraction pipeline over a generated
// codebase. Units are independent of each other (each builds its own
// preprocessor, parser, and trees over the shared read-only file maps), so
// they are indexed concurrently on the Options.Workers pool.
func IndexCodebase(cb *corpus.Codebase, opts Options) (*Index, error) {
	return IndexCodebaseCtx(context.Background(), cb, opts)
}

// IndexCodebaseCtx is IndexCodebase under a cancellation context: the
// per-unit worker pool checks ctx at every task grant, and a canceled
// run returns ctx.Err() with no partial Index — callers never see (and
// never persist) a half-indexed codebase.
func IndexCodebaseCtx(ctx context.Context, cb *corpus.Codebase, opts Options) (*Index, error) {
	idx, _, err := indexUnits(ctx, cb, opts, unitSource{od: opts.Digest()})
	return idx, err
}

// unitSource is where one index call finds units it need not parse: the
// engine's unit memo (nil on the package-level paths, which keep none),
// the call number that stamps every memo candidate it touches, and the
// units of a usable prior index, by file (nil when there is none).
type unitSource struct {
	memo  *unitMemo
	call  uint64
	od    store.ContentHash
	prior map[string]*UnitIndex
}

// priorUnits returns prior's units by file when prior can serve cb under
// the options digest od — same app, model, language and options — and
// nil otherwise.
func priorUnits(prior *Index, cb *corpus.Codebase, od store.ContentHash) map[string]*UnitIndex {
	if prior == nil || prior.Codebase != cb.App || prior.Model != string(cb.Model) ||
		prior.Lang != cb.Lang || prior.Opts != od {
		return nil
	}
	byFile := make(map[string]*UnitIndex, len(prior.Units))
	for i := range prior.Units {
		byFile[prior.Units[i].File] = &prior.Units[i]
	}
	return byFile
}

// indexUnits is the one per-unit path behind every index entry point. It
// serves each unit of cb it can from src — a validated memo candidate or
// prior unit, shared as is (trees are immutable once indexed) — and runs
// the frontend over the rest on the Options.Workers pool, each under an
// "index.unit" span beneath the call's root span: "incr.index" when a
// prior index is in play, else "index.codebase" (which also counts the
// codebase's units in index.units). The first failure is reported in
// input order, matching the serial loop; a canceled run returns ctx.Err().
// Either way there is no Index and no stats. Otherwise the parsed units
// are published to the memo keep-first, the units are sorted into
// canonical order, and the stats count each unit once: served or parsed.
func indexUnits(ctx context.Context, cb *corpus.Codebase, opts Options, src unitSource) (*Index, IncrStats, error) {
	var root *obs.Span
	if src.prior != nil {
		root = opts.Recorder.Start("incr.index")
	} else {
		root = opts.Recorder.Start("index.codebase")
		opts.Recorder.Counter("index.units").Add(int64(len(cb.Units)))
	}
	root.Arg("app", cb.App).Arg("model", string(cb.Model))
	idx := &Index{Codebase: cb.App, Model: string(cb.Model), Lang: cb.Lang, Opts: src.od}
	idx.Units = make([]UnitIndex, len(cb.Units))
	keys := make([]unitKey, len(cb.Units))
	var st IncrStats
	var todo []int
	for i, u := range cb.Units {
		var ok bool
		keys[i], idx.Units[i], ok = src.memo.lookup(cb, u, src.od, src.call, src.prior[u.File])
		if ok {
			st.UnitsReused++
		} else {
			todo = append(todo, i)
		}
	}
	st.UnitsReparsed = len(todo)

	errs := make([]error, len(todo))
	ctxErr := runParallelCtx(ctx, len(todo), opts.ResolvedWorkers(), func(k int) {
		i := todo[k]
		u := cb.Units[i]
		usp := root.Start("index.unit").Arg("file", u.File)
		if cb.Lang == corpus.LangFortran {
			idx.Units[i], errs[k] = indexFortranUnit(cb, u, opts, usp)
		} else {
			idx.Units[i], errs[k] = indexCXXUnit(cb, u, opts, usp)
		}
		usp.End()
	})
	root.End()
	if ctxErr != nil {
		return nil, IncrStats{}, ctxErr
	}
	for k, err := range errs {
		if err != nil {
			return nil, IncrStats{}, fmt.Errorf("core: %s/%s %s: %w", cb.App, cb.Model, cb.Units[todo[k]].File, err)
		}
	}
	for _, i := range todo {
		src.memo.publish(keys[i], idx.Units[i], src.call)
	}
	sortUnits(idx.Units)
	return idx, st, nil
}

// sortUnits establishes the canonical unit order: by Role, tie-broken by
// File. Fresh and store-restored indexes must agree on this order — the
// incremental layer's MetricHash folds units in slice order, so a
// reordered-but-equal index would spuriously miss the cell memo.
func sortUnits(units []UnitIndex) {
	sort.Slice(units, func(i, j int) bool {
		if units[i].Role != units[j].Role {
			return units[i].Role < units[j].Role
		}
		return units[i].File < units[j].File
	})
}

func indexCXXUnit(cb *corpus.Codebase, u corpus.Unit, opts Options, usp *obs.Span) (UnitIndex, error) {
	ui := UnitIndex{File: u.File, Role: u.Role, Trees: map[string]*tree.Node{}}
	provider := &minic.MapProvider{Files: cb.Files, System: cb.System}
	pp := minic.NewPreprocessor(provider, nil)
	res, err := pp.PreprocessObs(u.File, usp)
	if err != nil {
		return ui, err
	}
	ui.Deps = append([]string{u.File}, res.Includes...)
	ui.MissingDeps = res.MissingIncludes
	isSystem := func(file string) bool {
		if opts.KeepSystemHeaders {
			return false
		}
		return cb.System[file]
	}

	// unit file set: the root plus its dependency closure (Eq. 1)
	unitFiles := []string{u.File}
	for _, inc := range res.Includes {
		if !isSystem(inc) {
			unitFiles = append(unitFiles, inc)
		}
	}

	// --- perceived metrics: SLOC / LLOC / Source ---------------------------
	for _, f := range unitFiles {
		src := cb.Files[f]
		ui.SLOC += sloc.SLOC(src, sloc.LangC)
		ui.LLOC += sloc.LLOC(src, sloc.LangC)
		lines, nums := sloc.NormalizeWithLines(src, sloc.LangC)
		ui.SourceLines = append(ui.SourceLines, lines...)
		for _, n := range nums {
			ui.LineFiles = append(ui.LineFiles, f)
			ui.LineNums = append(ui.LineNums, n)
		}
	}
	// the +pp variant measures what the compiler actually consumed —
	// including everything the preprocessor pulled in (this is where the
	// SYCL two-pass blow-up appears)
	ppLines := strings.Split(res.Text, "\n")
	for i, l := range ppLines {
		if i < len(res.LineOrigin) && isSystem(res.LineOrigin[i].File) {
			continue
		}
		for _, n := range sloc.Normalize(l, sloc.LangC) {
			ui.SourceLinesPP = append(ui.SourceLinesPP, n)
		}
	}

	// --- T_src --------------------------------------------------------------
	ssp := usp.Start("frontend.srctree")
	tsrc := tree.New("unit")
	for _, f := range unitFiles {
		tsrc.Add(minic.BuildSrcTree(cb.Files[f], f))
	}
	ui.Trees[MetricTsrc] = tsrc
	tsrcPP := minic.BuildSrcTree(res.Text, u.File)
	minic.ApplyLineOriginsTree(tsrcPP, res.LineOrigin)
	tsrcPP = tsrcPP.Filter(func(n *tree.Node) bool { return !isSystem(n.Pos.File) })
	ui.Trees[MetricTsrcPP] = tsrcPP
	ssp.End()

	// --- T_sem / T_sem+i ----------------------------------------------------
	unit, err := minic.ParseUnitObs(res.Text, u.File, usp)
	if err != nil {
		return ui, err
	}
	minic.ApplyLineOrigins(unit, res.LineOrigin)
	pruned := pruneSystemDecls(unit, isSystem)
	semsp := usp.Start("frontend.sem")
	ui.Trees[MetricTsem] = minic.BuildSemTree(pruned)
	semsp.End()
	insp := usp.Start("frontend.inline")
	inlined := minic.InlineUnit(unit, minic.InlineOptions{ExcludeFile: func(f string) bool {
		return cb.System[f] // inlining never pulls true system code in
	}})
	ui.Trees[MetricTsemI] = minic.BuildSemTree(pruneSystemDecls(inlined, isSystem))
	insp.End()

	// --- T_ir ---------------------------------------------------------------
	bundle := ir.LowerUnitObs(pruned, u.File, usp)
	ui.Trees[MetricTir] = bundle.Tree()

	applyCoverage(&ui, opts.Coverage)
	finalizeUnit(cb, &ui, usp)
	return ui, nil
}

func indexFortranUnit(cb *corpus.Codebase, u corpus.Unit, opts Options, usp *obs.Span) (UnitIndex, error) {
	ui := UnitIndex{File: u.File, Role: u.Role, Trees: map[string]*tree.Node{}}
	src := cb.Files[u.File]
	ui.SLOC = sloc.SLOC(src, sloc.LangFortran)
	ui.LLOC = sloc.LLOC(src, sloc.LangFortran)
	lines, nums := sloc.NormalizeWithLines(src, sloc.LangFortran)
	ui.SourceLines = lines
	ui.LineNums = nums
	for range nums {
		ui.LineFiles = append(ui.LineFiles, u.File)
	}
	// Fortran has no preprocessing phase in this dialect: +pp == plain
	ui.SourceLinesPP = ui.SourceLines

	ssp := usp.Start("frontend.srctree")
	ui.Trees[MetricTsrc] = minifortran.BuildSrcTree(src, u.File)
	ui.Trees[MetricTsrcPP] = ui.Trees[MetricTsrc]
	ssp.End()

	unit, err := minifortran.ParseUnitObs(src, u.File, usp)
	if err != nil {
		return ui, err
	}
	semsp := usp.Start("frontend.sem")
	ui.Trees[MetricTsem] = minic.BuildSemTree(unit)
	semsp.End()
	insp := usp.Start("frontend.inline")
	inlined := minic.InlineUnit(unit, minic.InlineOptions{})
	ui.Trees[MetricTsemI] = minic.BuildSemTree(inlined)
	insp.End()
	bundle := ir.LowerUnitObs(unit, u.File, usp)
	ui.Trees[MetricTir] = bundle.Tree()

	applyCoverage(&ui, opts.Coverage)
	// Fortran units in this dialect have no include mechanism: the unit
	// depends on its root file alone.
	ui.Deps = []string{u.File}
	finalizeUnit(cb, &ui, usp)
	return ui, nil
}

func applyCoverage(ui *UnitIndex, prof *coverage.Profile) {
	if prof == nil {
		return
	}
	for _, k := range sortedTreeKeys(ui.Trees) {
		ui.Trees[k] = prof.MaskTree(ui.Trees[k])
	}
	// +coverage variants of the perceived metrics: keep only executed
	// lines, recount SLOC, and scale LLOC by the surviving fraction (the
	// logical-line mask a real coverage report would produce).
	var lines []string
	var files []string
	var nums []int
	for i, l := range ui.SourceLines {
		f, n := "", 0
		if i < len(ui.LineFiles) {
			f = ui.LineFiles[i]
		}
		if i < len(ui.LineNums) {
			n = ui.LineNums[i]
		}
		if prof.Keep(f, n, l) {
			lines = append(lines, l)
			files = append(files, f)
			nums = append(nums, n)
		}
	}
	if len(ui.SourceLines) > 0 {
		frac := float64(len(lines)) / float64(len(ui.SourceLines))
		ui.LLOC = int(float64(ui.LLOC)*frac + 0.5)
	}
	ui.SourceLines = lines
	ui.LineFiles = files
	ui.LineNums = nums
	ui.SLOC = len(lines)
}

// pruneSystemDecls removes top-level declarations whose position lies in a
// system file ("artefacts such as system headers ... can simply be masked
// out during the analysis phase").
func pruneSystemDecls(unit *minic.ASTNode, isSystem func(string) bool) *minic.ASTNode {
	out := unit.Clone()
	var kept []*minic.ASTNode
	for _, d := range out.Children {
		if d.Pos.IsValid() && isSystem(d.Pos.File) {
			continue
		}
		kept = append(kept, d)
	}
	out.Children = kept
	return out
}

// combinedUnit preprocesses and parses a whole C++ codebase as one
// translation unit (every unit file included into a synthetic
// __combined.cpp, main last), the executable form both the coverage and
// profiling runs interpret.
func combinedUnit(cb *corpus.Codebase) (*minic.ASTNode, error) {
	if cb.Lang == corpus.LangFortran {
		return nil, fmt.Errorf("core: coverage runs require the C++ interpreter")
	}
	files := make(map[string]string, len(cb.Files)+1)
	for k, v := range cb.Files {
		files[k] = v
	}
	var includes []string
	for _, u := range cb.Units {
		includes = append(includes, fmt.Sprintf("#include %q", u.File))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(includes))) // main last
	files["__combined.cpp"] = strings.Join(includes, "\n") + "\n"
	provider := &minic.MapProvider{Files: files, System: cb.System}
	pp := minic.NewPreprocessor(provider, nil)
	res, err := pp.Preprocess("__combined.cpp")
	if err != nil {
		return nil, err
	}
	unit, err := minic.ParseUnit(res.Text, "__combined.cpp")
	if err != nil {
		return nil, err
	}
	minic.ApplyLineOrigins(unit, res.LineOrigin)
	return unit, nil
}

// RunCoverage executes the serial port of an app in the interpreter on the
// reduced problem size and returns its coverage profile, implementing the
// "recompile with coverage flags and run with a reduced problem set" leg of
// the workflow.
func RunCoverage(cb *corpus.Codebase) (*coverage.Profile, error) {
	unit, err := combinedUnit(cb)
	if err != nil {
		return nil, err
	}
	out, err := interp.Run(unit, interp.Options{})
	if err != nil {
		return nil, err
	}
	return coverage.NewProfile(out.Coverage), nil
}
