// Package obs is the pipeline's observability layer: hierarchical spans
// with monotonic timings, atomic counters, and bounded latency histograms,
// recorded concurrently from every stage of the TBMD pipeline (frontends,
// IR lowering, fingerprinting, TED, the divergence engine) and exported as
// a Chrome trace_event file, a Prometheus-style text summary, or JSON.
//
// The package is zero-dependency (stdlib only) and built around one
// invariant: a nil *Recorder — and the nil *Span / *Counter / *Histogram
// values it hands out — is a valid, fully disabled recorder. Every method
// on a nil receiver is a no-op, so instrumented code carries no branches
// beyond the nil check the method itself performs, and the hot path costs
// nothing measurable when observability is off (see bench_test.go and the
// Matrix benchmarks at the repo root).
//
// Metric names are stable, dot-delimited identifiers (the full table lives
// in DESIGN.md §"Observability"): counters like "ted.cache.hits",
// "ted.bound_pruned", or "ted.flat_memo.hits", histograms like
// "engine.task_ns", span names like "frontend.parse".
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds the finished-span buffer. Past the bound, spans
// are dropped (counted in Snapshot.DroppedSpans) rather than growing the
// recorder without limit; counters and histograms are unaffected.
const DefaultMaxSpans = 1 << 20

// Recorder collects spans, counters, and histograms. The zero value is not
// usable; call NewRecorder. A nil *Recorder is the disabled recorder: it
// returns nil spans/counters/histograms whose methods all no-op.
type Recorder struct {
	epoch    time.Time
	maxSpans int
	nextID   atomic.Uint64

	mu      sync.Mutex
	spans   []SpanRecord
	aggs    map[string]SpanAggregate // spans, summarised by name as they end
	dropped uint64

	counters sync.Map // name -> *Counter
	hists    sync.Map // name -> *Histogram

	adoptMu sync.Mutex
	adopted map[string][]*Counter // name -> counters owned by modules
}

// NewRecorder returns an enabled recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), maxSpans: DefaultMaxSpans, aggs: map[string]SpanAggregate{}}
}

// SetMaxSpans bounds the finished-span buffer (n <= 0 restores the
// default). Call before recording; it is not synchronised with End.
func (r *Recorder) SetMaxSpans(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	r.maxSpans = n
}

// --- spans -------------------------------------------------------------------

// SpanRecord is one finished span: ID links children to Parent (0 for
// roots), Root names the span's top-level ancestor (itself for roots), and
// Start/Dur are monotonic offsets from the recorder's epoch.
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Root   uint64
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Args   []SpanArg
}

// SpanArg is one key/value annotation attached to a span.
type SpanArg struct{ Key, Value string }

// Span is an in-flight span. A nil *Span is the disabled span: Start
// returns nil, Arg and End no-op.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	root   uint64
	name   string
	start  time.Duration
	args   []SpanArg
}

// Start opens a root span.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	id := r.nextID.Add(1)
	return &Span{rec: r, id: id, root: id, name: name, start: time.Since(r.epoch)}
}

// Start opens a child span. Children may be opened and ended from a
// different goroutine than their parent; the only requirement is that a
// span's own Arg/End calls are not concurrent with each other.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	id := s.rec.nextID.Add(1)
	return &Span{rec: s.rec, id: id, parent: s.id, root: s.root, name: name, start: time.Since(s.rec.epoch)}
}

// Arg annotates the span and returns it for chaining.
func (s *Span) Arg(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, SpanArg{Key: key, Value: value})
	return s
}

// Recorder returns the span's recorder (nil for the disabled span), so
// instrumented code handed only a parent span can reach counters and
// histograms.
func (s *Span) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// End finishes the span and files its record. Ending a span twice files it
// twice; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Root: s.root, Name: s.name,
		Start: s.start, Dur: time.Since(r.epoch) - s.start, Args: s.args,
	}
	r.mu.Lock()
	if len(r.spans) < r.maxSpans {
		r.spans = append(r.spans, rec)
		agg := r.aggs[rec.Name]
		agg.Count++
		agg.TotalNS += rec.Dur.Nanoseconds()
		agg.MaxNS = max(agg.MaxNS, rec.Dur.Nanoseconds())
		r.aggs[rec.Name] = agg
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns a copy of every finished span, in End order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	return out
}

// --- counters ----------------------------------------------------------------

// Counter is a monotonically updated atomic counter. A nil *Counter
// no-ops; the zero value is ready to use, so a module can keep its own
// always-on counters and hand them to a recorder with Adopt.
type Counter struct{ v atomic.Int64 }

// Counter returns (creating on first use) the named counter. Callers on
// hot paths should resolve once and keep the pointer.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Adopt registers c, a counter its module owns and updates itself, under
// name. Snapshot reports the sum of every counter adopted under a name
// plus the recorder's own counter of that name, so several modules (two
// caches, a fresh store per run) can share one recorder. The recorder
// holds only c, never the module around it, and counts whatever c counted
// before adoption too. Adopting the same counter twice under one name is a
// no-op.
func (r *Recorder) Adopt(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.adoptMu.Lock()
	defer r.adoptMu.Unlock()
	for _, prev := range r.adopted[name] {
		if prev == c {
			return
		}
	}
	if r.adopted == nil {
		r.adopted = map[string][]*Counter{}
	}
	r.adopted[name] = append(r.adopted[name], c)
}

// Add increments the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- histograms --------------------------------------------------------------

// histBuckets is the fixed bucket count: bucket i holds values whose bit
// length is i, i.e. upper bound 2^i - 1, with the last bucket absorbing
// everything larger. Memory per histogram is constant (~0.5 KiB).
const histBuckets = 48

// Histogram is a bounded base-2 exponential histogram over non-negative
// int64 observations (nanosecond latencies, node counts, queue depths).
// A nil *Histogram no-ops.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// Histogram returns (creating on first use) the named histogram. Callers
// on hot paths should resolve once and keep the pointer.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return int64(1)<<62 - 1 // effectively +Inf for our domains
	}
	return int64(1)<<uint(i) - 1
}

// Observe files one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramBucket is one non-empty bucket of a snapshot: Count values fell
// at or below UpperBound (and above the previous bucket's bound).
type HistogramBucket struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			out.Buckets = append(out.Buckets, HistogramBucket{UpperBound: BucketBound(i), Count: c})
		}
	}
	return out
}
