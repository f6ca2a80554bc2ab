// Command silvervale is the end-to-end CLI over the TBMD analysis
// framework: generate corpus codebases, index them into semantic-bearing
// trees, compare models, cluster, compute Φ, and regenerate every table and
// figure of the paper.
//
// Usage:
//
//	silvervale list
//	silvervale generate <app> <model> -o <dir>
//	silvervale index <app> <model> [-coverage] [-db <file>]
//	silvervale diverge <app> <modelA> <modelB> [-metric <m>]
//	silvervale matrix <app> [-metric <m>]
//	silvervale phi <app> [-phi-source modeled|measured] [-json <file>]
//	silvervale experiment <id>|all [-phi-source modeled|measured]
//	silvervale serve [-addr <host:port>] [-max-inflight n] [-queue n]
//	silvervale dump <app> <model> [-tree <metric>]
//
// Observability flags (leading, or trailing after positionals):
//
//	silvervale -trace out.json -metrics matrix tealeaf
//	silvervale experiment all -metrics -metrics-format=json
//	silvervale -pprof 127.0.0.1:6060 experiment all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"silvervale/internal/cluster"
	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/faultfs"
	"silvervale/internal/obs"
	"silvervale/internal/perf"
	"silvervale/internal/serve"
	"silvervale/internal/store"
	"silvervale/internal/ted"
	"silvervale/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "silvervale:", err)
		os.Exit(1)
	}
}

// obsConfig carries the observability surface: -trace emits a Chrome
// trace_event file, -metrics prints a Prometheus-style summary (or JSON
// with -metrics-format=json), -pprof serves net/http/pprof for the
// duration of the command. The flags register both on the global (leading)
// flag set and on each engine-backed subcommand, so they work in either
// position. When none is set, no recorder is created and the pipeline runs
// entirely uninstrumented.
type obsConfig struct {
	trace         string
	metrics       bool
	metricsFormat string
	pprofAddr     string
	cacheDir      string
	cacheReadonly bool
	cacheClear    bool
	cacheStrict   bool
	tierBudget    float64

	rec          *obs.Recorder
	st           *store.Store
	pprofStarted bool
}

func (c *obsConfig) register(fs *flag.FlagSet) {
	fs.StringVar(&c.trace, "trace", c.trace, "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	fs.BoolVar(&c.metrics, "metrics", c.metrics, "print a metrics summary after the command")
	fs.StringVar(&c.metricsFormat, "metrics-format", c.metricsFormat, "metrics output format: text (Prometheus-style) or json")
	fs.StringVar(&c.pprofAddr, "pprof", c.pprofAddr, "serve net/http/pprof on this address while the command runs")
	fs.StringVar(&c.cacheDir, "cache-dir", c.cacheDir, "persistent artifact store: warm-start TED distances and indexes across runs")
	fs.BoolVar(&c.cacheReadonly, "cache-readonly", c.cacheReadonly, "serve lookups from -cache-dir but write nothing back")
	fs.BoolVar(&c.cacheClear, "cache-clear", c.cacheClear, "clear the -cache-dir record tiers before running")
	fs.BoolVar(&c.cacheStrict, "cache-strict", c.cacheStrict, "treat cache I/O errors as fatal instead of degrading to memory-only")
	fs.Func("tier-budget", "tiered matrix sweeps: per-cell error `budget` (>= 0.5 screening; 0 to <0.5 exact; <0 off, the default: no stats line)", c.setTierBudget)
}

// setTierBudget parses -tier-budget. Non-finite values are usage errors:
// NaN would compare false against every threshold and silently disable
// tiering, and +Inf is no budget at all.
func (c *obsConfig) setTierBudget(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return errors.New("parse error")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return errors.New("must be a finite number")
	}
	c.tierBudget = v
	return nil
}

func (c *obsConfig) enabled() bool {
	return c.trace != "" || c.metrics || c.pprofAddr != ""
}

// recorder lazily creates the recorder (and starts the pprof server) once
// a subcommand asks for it — after its flag set has parsed, so trailing
// flags are honoured. Returns nil when observability is off.
func (c *obsConfig) recorder() (*obs.Recorder, error) {
	if !c.enabled() {
		return nil, nil
	}
	if c.pprofAddr != "" && !c.pprofStarted {
		ln, err := net.Listen("tcp", c.pprofAddr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		c.pprofStarted = true
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) //nolint — lives for the command's duration
	}
	if c.rec == nil && (c.trace != "" || c.metrics) {
		c.rec = obs.NewRecorder()
	}
	return c.rec, nil
}

// store lazily opens the persistent artifact store once a subcommand asks
// for it (after flag parsing, so trailing flags are honoured), clearing
// the record tiers first under -cache-clear. Returns nil when -cache-dir
// is unset. SILVERVALE_FAULTFS (a faultfs spec like "enospc@5+" or
// "sync:eio@1") wraps the store's filesystem in the fault injector — the
// crash-consistency harness for end-to-end runs; see DESIGN.md §9.
func (c *obsConfig) store() (*store.Store, error) {
	if c.cacheDir == "" {
		return nil, nil
	}
	if c.st == nil {
		fsys, err := cacheFS()
		if err != nil {
			return nil, err
		}
		if c.cacheClear {
			if err := store.ClearFS(fsys, c.cacheDir); err != nil {
				return nil, err
			}
		}
		st, err := store.Open(c.cacheDir, store.Options{
			Readonly: c.cacheReadonly,
			Strict:   c.cacheStrict,
			FS:       fsys,
		})
		if err != nil {
			return nil, err
		}
		c.st = st
	}
	return c.st, nil
}

// cacheFS resolves the filesystem the artifact store runs on: the real
// one, unless SILVERVALE_FAULTFS schedules injected faults.
func cacheFS() (faultfs.FS, error) {
	spec := os.Getenv("SILVERVALE_FAULTFS")
	if spec == "" {
		return faultfs.OS{}, nil
	}
	faults, err := faultfs.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("SILVERVALE_FAULTFS: %w", err)
	}
	fmt.Fprintf(os.Stderr, "faultfs: injecting %q into the artifact store\n", spec)
	return faultfs.New(faultfs.OS{}, faults...), nil
}

// finish closes the store (returning its fault under -cache-strict),
// writes the trace file and prints the metrics summary.
func (c *obsConfig) finish() error {
	if err := c.st.Close(); err != nil {
		return err
	}
	if c.rec == nil {
		return nil
	}
	if c.trace != "" {
		f, err := os.Create(c.trace)
		if err != nil {
			return err
		}
		if err := c.rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", c.trace)
	}
	if c.metrics {
		if c.metricsFormat == "json" {
			return c.rec.WriteMetricsJSON(os.Stdout)
		}
		return c.rec.WriteMetrics(os.Stdout)
	}
	return nil
}

func (c *obsConfig) newEngine(workers int) (*core.Engine, error) {
	rec, err := c.recorder()
	if err != nil {
		return nil, err
	}
	st, err := c.store()
	if err != nil {
		return nil, err
	}
	return core.NewEngineStore(workers, ted.NewCache(), rec, st), nil
}

func (c *obsConfig) newEnv(workers int) (*experiments.Env, error) {
	rec, err := c.recorder()
	if err != nil {
		return nil, err
	}
	st, err := c.store()
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnvStore(workers, rec, st)
	if c.tierRequested() {
		env.SetTierPolicy(ted.TierPolicy{Budget: c.tierBudget})
	}
	return env, nil
}

// tierRequested reports whether -tier-budget was given (>= 0): the tiered
// matrix path is engaged (below ted.ScreeningBudget as the exact sweep)
// and the post-sweep tier stats line is printed.
func (c *obsConfig) tierRequested() bool { return c.tierBudget >= 0 }

func run(args []string) error {
	cfg := &obsConfig{metricsFormat: "text", tierBudget: -1}
	gfs := flag.NewFlagSet("silvervale", flag.ContinueOnError)
	cfg.register(gfs)
	if err := gfs.Parse(args); err != nil {
		return err
	}
	args = gfs.Args()
	if len(args) == 0 {
		return usage()
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList()
	case "generate":
		err = cmdGenerate(args[1:])
	case "index":
		err = cmdIndex(args[1:], cfg)
	case "diverge":
		err = cmdDiverge(args[1:], cfg)
	case "matrix":
		err = cmdMatrix(args[1:], cfg)
	case "phi":
		err = cmdPhi(args[1:], cfg)
	case "experiment":
		err = cmdExperiment(args[1:], cfg)
	case "ingest":
		err = cmdIngest(args[1:], cfg)
	case "watch":
		err = cmdWatch(args[1:], cfg)
	case "serve":
		err = cmdServe(args[1:], cfg)
	case "dump":
		err = cmdDump(args[1:])
	case "help", "-h", "--help":
		err = usage()
	default:
		err = fmt.Errorf("unknown command %q (try: silvervale help)", args[0])
	}
	if err != nil {
		return err
	}
	return cfg.finish()
}

func usage() error {
	fmt.Println(`silvervale — Tree-Based Model Divergence analysis framework

commands:
  list                                   apps, models, metrics, experiments
  generate <app> <model> -o <dir>        write a codebase + compile_commands.json
  index <app> <model> [-coverage] [-db]  index into semantic-bearing trees
  diverge <app> <A> <B> [-metric m]      divergence of B from A
  matrix <app> [-metric m]               cartesian divergence, heatmap, dendrogram
  phi <app> [-phi-source s] [-json f]    cascade plot and per-model phi
  experiment <id>|all [-phi-source s]    regenerate a paper table/figure
  ingest <dir>                           index a directory via its compile_commands.json
  watch <dir> [-metric m] [-iters n]     re-emit the matrix incrementally as ports are edited
  serve [-addr a] [-max-inflight n]      divergence-as-a-service HTTP daemon
  dump <app> <model> [-tree m]           pretty-print a unit's tree

index, diverge, matrix, phi, experiment, ingest, watch, and serve accept
-workers <n> to bound the divergence engine's worker pool (default: all
CPUs; 1 = serial). The same pool also bounds loading an app's per-port
indexes (from the pipeline or the -cache-dir store) and profiling its
ports under -phi-source measured. Results are identical for every value.
They also accept the observability flags (leading or trailing): -trace
<file> writes a Chrome trace_event JSON, -metrics prints a metrics
summary (-metrics-format=text|json), and -pprof <addr> serves
net/http/pprof while the command runs.

The same commands accept -cache-dir <dir>: a persistent content-addressed
artifact store that warm-starts TED distances and codebase indexes across
runs (results are byte-identical to a cold run). -cache-readonly serves
lookups without writing back; -cache-clear empties the store first.

matrix and experiment additionally accept -tier-budget <b>, a per-cell
error budget, and print a post-sweep tier stats line:
  b >= 0.5      screening: an LSH + pq-gram prefilter estimates far pairs,
                exact Zhang–Shasha runs only for close/borderline pairs
  0 <= b < 0.5  the exact sweep (byte-identical output), every pair exact
  b < 0         off (the default): no tiering, no stats line

  silvervale matrix tealeaf -metric tsem -tier-budget 0.5   # screening: ~3x faster than exact (2.3 s -> 0.75 s, 2 CPUs)

phi and experiment accept -phi-source measured: performance figures are
derived from interpreter-measured cost vectors (statements, loop trips,
memory bytes, flops, kernel launches) priced on each platform's roofline
instead of the hand-written support-matrix landscape. The support matrix
still gates which platforms a model can target. phi -json <file> also
writes the app's navigation chart as JSON ("-" = stdout); under the
measured source each point carries its cost summary. See DESIGN.md §11.

  silvervale phi babelstream -phi-source measured -json chart.json

watch holds a warm engine resident over a directory whose immediate
subdirectories each contain a port (sources + compile_commands.json). Edits
are detected by content hash; only edited units re-run the frontend and
only matrix cells whose side changed are recomputed — the rest come from
the engine's memo, bit-identical to a cold sweep. Each emitted sweep
prints the heatmap and dendrogram to stdout and an "incremental:" stats
line to stderr. Stdout is identical for every -workers value; above one
worker the line's "subtree blocks reused, recomputed" split is not,
because concurrent cells race to publish a shared block first (use
-workers 1 to compare that split across runs). -snapshot <file>
persists the warm state (indexes, memoised cells and TED subtree
blocks); -since <file> is the one-shot CI form: restore, sweep once
incrementally, exit.

  silvervale watch ports/ -iters 1 -snapshot warm.svsnap   # CI baseline
  silvervale watch ports/ -since warm.svsnap               # ms warm re-sweep

serve holds the same warm engine resident behind an HTTP/JSON API
(DESIGN.md §14): POST /v1/matrix, /v1/frombase, /v1/phi, and streaming
/v1/sweep serve sweeps from one shared cache (responses byte-identical to
matrix -json / phi -json); POST /v1/codebases uploads a codebase and
/v1/diverge compares two uploads. At most -max-inflight sweeps run
concurrently with -queue more waiting; overflow gets 429 + Retry-After.
A client disconnect cancels its sweep at the next task grant without
corrupting any memo. SIGINT/SIGTERM drains in-flight requests for up to
-shutdown-timeout, then prints a stats line. The observability flags
(-metrics, -trace, -pprof, -cache-dir) apply to the whole daemon.

  silvervale serve -addr 127.0.0.1:8723 -cache-dir ~/.cache/silvervale &
  curl -s -X POST localhost:8723/v1/matrix \
    -H 'Content-Type: application/json' -d '{"app":"tealeaf","metric":"tsem"}'

Cache I/O errors never change results: past an error threshold the store
degrades to memory-only (a one-line warning; results recompute). Pass
-cache-strict to make the first cache fault fatal instead. The
SILVERVALE_FAULTFS environment variable injects deterministic faults into
the store's filesystem for crash-consistency testing ("enospc@5+",
"sync:eio@1"; see DESIGN.md §9).

  silvervale matrix tealeaf -cache-dir ~/.cache/silvervale   # cold: fills
  silvervale matrix tealeaf -cache-dir ~/.cache/silvervale   # warm: fast`)
	return nil
}

func cmdList() error {
	fmt.Println("mini-apps:")
	for _, app := range corpus.Apps() {
		var models []string
		for _, m := range corpus.ModelsFor(app) {
			models = append(models, string(m))
		}
		fmt.Printf("  %-22s (%s, %s, %d kernels): %s\n",
			app.Name, app.Lang, app.Type, len(app.Kernels), strings.Join(models, " "))
	}
	fmt.Println("metrics:", strings.Join(core.Metrics(), " "))
	fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
	return nil
}

func generateCodebase(appName, model string) (*corpus.Codebase, error) {
	app, err := corpus.AppByName(appName)
	if err != nil {
		return nil, err
	}
	return corpus.Generate(app, corpus.Model(model))
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	out := fs.String("o", "", "output directory (required)")
	pos, err := splitArgs(fs, args, 2)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -o <dir> is required")
	}
	cb, err := generateCodebase(pos[0], pos[1])
	if err != nil {
		return err
	}
	for _, name := range cb.FileNames() {
		path := filepath.Join(*out, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(cb.Source(name)), 0o644); err != nil {
			return err
		}
	}
	ccJSON, err := cb.CompileCommands(*out).Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "compile_commands.json"), ccJSON, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d files + compile_commands.json to %s\n", len(cb.Files), *out)
	return nil
}

func cmdIndex(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("index", flag.ContinueOnError)
	withCov := fs.Bool("coverage", false, "run the serial interpreter for a coverage mask")
	dbOut := fs.String("db", "", "write the Codebase DB (gzip+msgpack) to this file")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 2)
	if err != nil {
		return err
	}
	cb, err := generateCodebase(pos[0], pos[1])
	if err != nil {
		return err
	}
	// The engine path lets -cache-dir warm-start the default-option index
	// from the store's index tier (coverage runs always recompute).
	engine, err := cfg.newEngine(*workers)
	if err != nil {
		return err
	}
	var opts core.Options
	if *withCov {
		prof, err := core.RunCoverage(cb)
		if err != nil {
			return fmt.Errorf("coverage run: %w", err)
		}
		opts.Coverage = prof
	}
	idx, err := engine.IndexCodebase(cb, opts)
	if err != nil {
		return err
	}
	for _, u := range idx.Units {
		fmt.Printf("unit %-16s role=%-8s sloc=%-5d lloc=%-5d", u.File, u.Role, u.SLOC, u.LLOC)
		for _, m := range core.TreeMetrics() {
			if t, ok := u.Trees[m]; ok {
				fmt.Printf(" %s=%d", m, t.Size())
			}
		}
		fmt.Println()
	}
	if err := core.SelfCheck(idx); err != nil {
		return err
	}
	fmt.Println("self-check: divergence against itself is zero for all metrics")
	if *dbOut != "" {
		db := idx.ToDB()
		if err := db.Save(*dbOut); err != nil {
			return err
		}
		fmt.Println("codebase DB written to", *dbOut)
	}
	return nil
}

func cmdDiverge(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("diverge", flag.ContinueOnError)
	metric := fs.String("metric", "", "single metric (default: all)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 3)
	if err != nil {
		return err
	}
	a, err := generateCodebase(pos[0], pos[1])
	if err != nil {
		return err
	}
	b, err := generateCodebase(pos[0], pos[2])
	if err != nil {
		return err
	}
	engine, err := cfg.newEngine(*workers)
	if err != nil {
		return err
	}
	ia, err := engine.IndexCodebase(a, core.Options{})
	if err != nil {
		return err
	}
	ib, err := engine.IndexCodebase(b, core.Options{})
	if err != nil {
		return err
	}
	metrics := core.Metrics()
	if *metric != "" {
		metrics = []string{*metric}
	}
	for _, m := range metrics {
		d, err := engine.Diverge(ia, ib, m)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s raw=%-10.0f dmax=%-10.0f norm=%.4f\n", m, d.Raw, d.DMax, d.Norm)
	}
	return nil
}

func cmdMatrix(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	metric := fs.String("metric", core.MetricTsem, "metric")
	jsonOut := fs.String("json", "", "also write the sweep + per-unit fingerprints as JSON to this file (\"-\" = stdout)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 1)
	if err != nil {
		return err
	}
	env, err := cfg.newEnv(*workers)
	if err != nil {
		return err
	}
	m, order, err := env.Matrix(pos[0], *metric)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		idxs, _, err := env.Indexes(pos[0])
		if err != nil {
			return err
		}
		// The payload type and encoder are shared with the serve daemon's
		// /v1/matrix endpoint, so the two outputs are byte-identical by
		// construction for the same inputs.
		payload := serve.BuildMatrixPayload(pos[0], *metric, order, m, idxs)
		w := io.Writer(os.Stdout)
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := payload.WriteJSON(w); err != nil {
			return err
		}
		if *jsonOut != "-" {
			fmt.Fprintf(os.Stderr, "matrix JSON written to %s\n", *jsonOut)
		}
	}
	fmt.Println(textplot.Heatmap(order, order, m))
	root, err := cluster.Agglomerate(order, cluster.EuclideanFromMatrix(m))
	if err != nil {
		return err
	}
	fmt.Println(cluster.Render(root))
	if env.Engine().Store() != nil {
		// Cache stats go to stderr so matrix stdout stays byte-identical
		// cold vs warm.
		fmt.Fprintln(os.Stderr, env.Engine().CacheStats())
	}
	if cfg.tierRequested() {
		// Tier stats go to stderr for the same reason the cache stats do:
		// matrix stdout stays byte-identical exact vs tiered at budget 0.
		fmt.Fprintln(os.Stderr, env.Engine().TierStats().Line(env.TierPolicy()))
	}
	return nil
}

func cmdPhi(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("phi", flag.ContinueOnError)
	src := fs.String("phi-source", experiments.PhiSourceModeled,
		"phi source: modeled (support-matrix landscape) or measured (interpreter cost vectors)")
	jsonOut := fs.String("json", "", "also write the app's navigation chart JSON to this file (\"-\" = stdout)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 1)
	if err != nil {
		return err
	}
	app := pos[0]
	env, err := cfg.newEnv(*workers)
	if err != nil {
		return err
	}
	if err := env.SetPhiSource(*src); err != nil {
		return err
	}
	plats := perf.Platforms()
	eff := func(m corpus.Model, p perf.Platform) float64 { return perf.Efficiency(app, m, p) }
	phi := func(m corpus.Model) float64 { return perf.AppPhi(app, m, plats) }
	if *src == experiments.PhiSourceMeasured {
		set, err := env.MeasuredSet(app)
		if err != nil {
			return err
		}
		eff = set.Efficiency
		phi = func(m corpus.Model) float64 { return set.AppPhi(m, plats) }
		fmt.Println("phi source: measured (interpreter cost vectors, DESIGN.md §11)")
	}
	for _, m := range corpus.CXXModels() {
		mm := m
		pts := perf.CascadeOf(func(p perf.Platform) float64 { return eff(mm, p) }, plats)
		fmt.Printf("%-12s phi=%.3f cascade:", m, phi(m))
		for _, p := range pts {
			fmt.Printf(" %s=%.2f", p.Platform, p.Eff)
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		ch, err := env.NavChart(app)
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			return ch.WriteJSON(os.Stdout)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := ch.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "navigation chart written to %s\n", *jsonOut)
	}
	return nil
}

func cmdExperiment(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	src := fs.String("phi-source", experiments.PhiSourceModeled,
		"phi source for performance figures: modeled or measured")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 1)
	if err != nil {
		return fmt.Errorf("experiment: exactly one id (or 'all') required")
	}
	env, err := cfg.newEnv(*workers)
	if err != nil {
		return err
	}
	if err := env.SetPhiSource(*src); err != nil {
		return err
	}
	ids := []string{pos[0]}
	if pos[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		res, err := env.Run(id)
		if err != nil {
			return err
		}
		fmt.Printf("==== %s: %s ====\n%s\n", res.ID, res.Title, res.Text)
	}
	fmt.Println(env.Engine().CacheStats())
	if cfg.tierRequested() {
		fmt.Println(env.Engine().TierStats().Line(env.TierPolicy()))
	}
	return nil
}

func cmdIngest(args []string, cfg *obsConfig) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
	cfg.register(fs)
	pos, err := splitArgs(fs, args, 1)
	if err != nil {
		return err
	}
	rec, err := cfg.recorder()
	if err != nil {
		return err
	}
	idx, err := core.IngestDirectory(pos[0], core.Options{Workers: *workers, Recorder: rec})
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s (app=%s model=%s)\n", pos[0], idx.Codebase, idx.Model)
	for _, u := range idx.Units {
		fmt.Printf("unit %-20s role=%-10s sloc=%-5d lloc=%-5d", u.File, u.Role, u.SLOC, u.LLOC)
		for _, m := range core.TreeMetrics() {
			if t, ok := u.Trees[m]; ok {
				fmt.Printf(" %s=%d", m, t.Size())
			}
		}
		fmt.Println()
	}
	return core.SelfCheck(idx)
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	metric := fs.String("tree", core.MetricTsem, "tree metric to dump")
	pos, err := splitArgs(fs, args, 2)
	if err != nil {
		return err
	}
	cb, err := generateCodebase(pos[0], pos[1])
	if err != nil {
		return err
	}
	idx, err := core.IndexCodebase(cb, core.Options{})
	if err != nil {
		return err
	}
	for _, u := range idx.Units {
		t, ok := u.Trees[*metric]
		if !ok {
			return fmt.Errorf("no tree %q", *metric)
		}
		fmt.Printf("--- %s (%s, %d nodes) ---\n%s", u.File, *metric, t.Size(), t.Pretty())
	}
	return nil
}

// splitArgs separates leading positional arguments from trailing flags and
// parses the flags.
func splitArgs(fs *flag.FlagSet, args []string, positional int) ([]string, error) {
	var pos, flags []string
	for i := 0; i < len(args); i++ {
		if strings.HasPrefix(args[i], "-") {
			flags = args[i:]
			break
		}
		pos = append(pos, args[i])
	}
	if len(pos) != positional {
		return nil, fmt.Errorf("%s: want %d positional arguments, got %d", fs.Name(), positional, len(pos))
	}
	return pos, fs.Parse(flags)
}
