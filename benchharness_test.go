// Shared scaffolding for the tiered-engine trajectory emitter
// (BenchmarkPR6Trajectory and its probe). The protocol — gate on
// SILVERVALE_BENCH_JSON, measure legs directly with wall-clock plus
// MemStats deltas, hard-assert bit-identity where a speedup must not
// change the numbers, write one JSON trajectory file — lives here. The
// repository benchmark (bench/, run by bench/run.sh) measures every other
// layer.
package silvervale

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchJSONPath gates a trajectory emitter: without SILVERVALE_BENCH_JSON
// set the benchmark skips, so plain `go test -bench .` sweeps are not
// slowed down.
func benchJSONPath(b *testing.B) string {
	b.Helper()
	out := os.Getenv("SILVERVALE_BENCH_JSON")
	if out == "" {
		b.Skip("set SILVERVALE_BENCH_JSON=<path> to emit the bench trajectory")
	}
	return out
}

// benchTiming is the common per-leg measurement record. Trajectory
// structs embed it (or use it directly) so every emitter's JSON carries
// the same field names.
type benchTiming struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// benchMeasure times iters repetitions of fn directly: testing.Benchmark
// deadlocks when invoked from inside a running benchmark (both take the
// package-global benchmark lock), so each leg is measured with wall-clock
// plus MemStats deltas — the same counters the -benchmem output is
// derived from. fn receives the repetition index so edit-style legs can
// make every rep pay the dirty work.
func benchMeasure(name string, iters int, fn func(rep int)) benchTiming {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return benchTiming{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     elapsed.Nanoseconds() / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
	}
}

// benchSameBits reports whether two matrices are bit-identical — the
// hard-assert form of "this speedup did not change the numbers". Plain
// == would treat -0.0 and 0.0 as equal and NaNs as unequal; the bit
// compare catches representation drift too.
func benchSameBits(a, b [][]float64) bool {
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

// benchWriteTrajectory serialises one trajectory to the gated JSON path.
func benchWriteTrajectory(b *testing.B, path string, traj any) {
	b.Helper()
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
