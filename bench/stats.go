package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples is a list of latencies of one operation class.
type samples []time.Duration

// pct returns the p-th percentile (nearest rank) in milliseconds, 0 when
// empty.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(p/100*float64(len(c)))) - 1
	rank = min(max(rank, 0), len(c)-1)
	return ms(c[rank])
}

// gmean returns the geometric mean in milliseconds (0 when empty): over a
// fixed mix of operation costs it uses every sample, so unlike a median it
// cannot jump between the mix's cost clusters.
func (s samples) gmean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, d := range s {
		sum += math.Log(ms(max(d, time.Nanosecond)))
	}
	return math.Exp(sum / float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// heapMB forces collections and returns the live heap in MB. The second
// collection also frees what sync.Pool caches kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtStats is a snapshot of the Go runtime's allocation and GC counters.
type rtStats struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	pauseNS    uint64
}

func readRT() rtStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtStats{m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// addRuntimeLayers records the runtime.* per-layer metrics for the
// interval between two snapshots.
func addRuntimeLayers(layers map[string]float64, a, b rtStats) {
	layers["runtime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	layers["runtime.allocs"] = float64(b.mallocs - a.mallocs)
	layers["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	layers["runtime.gc_pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
}
