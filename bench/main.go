// Command bench is silvervale's repository benchmark: three seeded
// workloads (cold_store, edit_stream, serve_mixed) timed end to end with
// tracing off, plus a traced mode that splits the same work layer by
// layer. See README.md beside this file for the workloads, the metric
// definitions and the layer table.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash bench/run.sh --workload edit_stream --seed 1 --seconds 10 --trace 0
//
// Human-readable report lines go to stdout first; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(cfg config) (*result, error){
	"cold_store":  runColdStore,
	"edit_stream": runEditStream,
	"serve_mixed": runServeMixed,
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	out      string // scratch directory for stores and trace files
}

// result is what a workload run reports. e2e holds the end-to-end
// metrics (untraced mode), layers the per-layer ones (traced mode);
// report holds the workload's own metric names, printed for humans.
type result struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	report    []reportLine
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	log.Printf("check failed: "+format, args...)
}

func (r *result) note(name string, value float64, unit string) {
	r.report = append(r.report, reportLine{name, value, unit})
}

// e2eUnits are the end-to-end metrics every workload reports, with units.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"primary_gmean_ms":   "ms",
	"primary_p90_ms":     "ms",
	"secondary_gmean_ms": "ms",
	"ops_per_s":          "1/s",
	"heap_mb":            "MB",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold_store, edit_stream or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (drives every generated input)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_out", "scratch directory (stores, trace files)")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.workers = 2
	if n := runtime.NumCPU(); n < cfg.workers {
		cfg.workers = n
	}
	run, ok := workloads[cfg.workload]
	if !ok || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		log.Fatalf("usage: bench --workload {cold_store|edit_stream|serve_mixed} --seed N --seconds S --trace {0|1}")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		log.Fatal(err)
	}
	res, err := run(cfg)
	if err != nil {
		log.Fatalf("%s: %v", cfg.workload, err)
	}
	if err := emit(os.Stdout, cfg, res); err != nil {
		log.Fatal(err)
	}
}

// emit prints the report lines and then the result JSON as the last line.
func emit(w io.Writer, cfg config, res *result) error {
	frac := float64(res.failed) / float64(max(res.attempted, 1))
	res.note("failed_frac", frac, "ratio")
	for _, l := range res.report {
		fmt.Fprintf(w, "%s %s %.6g %s\n", cfg.workload, l.name, l.value, l.unit)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if cfg.trace {
		for name, v := range res.layers {
			metrics[name] = metric{v, layerUnit(name)}
		}
	} else {
		for name, unit := range e2eUnits {
			v, ok := res.e2e[name]
			if !ok {
				return fmt.Errorf("workload did not report %s", name)
			}
			metrics[name] = metric{v, unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeJSONFile writes v, indented, to cfg.out/name.
func writeJSONFile(cfg config, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name), b, 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deadline returns the end of a measured phase starting now.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
