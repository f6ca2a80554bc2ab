package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsDisabled pins the package's core contract: a nil
// recorder and everything it hands out are safe no-ops.
func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	sp := r.Start("root")
	if sp != nil {
		t.Fatal("nil recorder produced a span")
	}
	child := sp.Start("child").Arg("k", "v")
	child.End()
	sp.End()
	if sp.Recorder() != nil {
		t.Fatal("nil span has a recorder")
	}
	r.Counter("c").Add(1)
	if r.Counter("c").Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	r.Histogram("h").Observe(7)
	r.SetMaxSpans(10)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder has spans: %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSpanHierarchy(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root")
	c1 := root.Start("child").Arg("file", "a.cpp")
	g := c1.Start("grandchild")
	g.End()
	c1.End()
	c2 := root.Start("child")
	c2.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	byID := map[uint64]SpanRecord{}
	for _, s := range spans {
		if s.Dur < 0 {
			t.Fatalf("negative duration: %+v", s)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Root != s.ID {
				t.Fatalf("root span with Root != ID: %+v", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("orphaned span: %+v", s)
		}
		if s.Root != p.Root {
			t.Fatalf("span root %d differs from parent root %d", s.Root, p.Root)
		}
		if s.Start < p.Start {
			t.Fatalf("child started before parent: %+v vs %+v", s, p)
		}
	}
	snap := r.Snapshot()
	if snap.Spans["child"].Count != 2 || snap.Spans["root"].Count != 1 {
		t.Fatalf("bad span aggregation: %+v", snap.Spans)
	}
	if c := snap.Spans["child"]; c.MaxNS > c.TotalNS {
		t.Fatalf("max exceeds total: %+v", c)
	}
}

func TestCountersAndHistogramsConcurrent(t *testing.T) {
	r := NewRecorder()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(i))
				sp := r.Start("work")
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["shared"]; got != goroutines*per {
		t.Fatalf("counter: want %d, got %d", goroutines*per, got)
	}
	h := snap.Histograms["lat"]
	if h.Count != goroutines*per {
		t.Fatalf("histogram count: want %d, got %d", goroutines*per, h.Count)
	}
	var bucketSum uint64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	if snap.Spans["work"].Count != goroutines*per {
		t.Fatalf("span aggregate: %+v", snap.Spans["work"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRecorder()
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024, -5} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 8 {
		t.Fatalf("count: %d", snap.Count)
	}
	// -5 clamps to 0, so sum = 0+1+2+3+4+1023+1024+0
	if snap.Sum != 2057 {
		t.Fatalf("sum: %d", snap.Sum)
	}
	if snap.Mean() != 2057.0/8 {
		t.Fatalf("mean: %f", snap.Mean())
	}
	// 0 and -5 land in bucket le=0; 1023 in le=1023; 1024 in le=2047
	want := map[int64]uint64{0: 2, 1: 1, 3: 2, 7: 1, 1023: 1, 2047: 1}
	got := map[int64]uint64{}
	for _, b := range snap.Buckets {
		got[b.UpperBound] = b.Count
	}
	for le, n := range want {
		if got[le] != n {
			t.Fatalf("bucket le=%d: want %d, got %d (all: %v)", le, n, got[le], got)
		}
	}
}

func TestMaxSpansDropsBeyondBound(t *testing.T) {
	r := NewRecorder()
	r.SetMaxSpans(3)
	for i := 0; i < 5; i++ {
		r.Start("s").End()
	}
	if got := len(r.Spans()); got != 3 {
		t.Fatalf("want 3 retained spans, got %d", got)
	}
	if snap := r.Snapshot(); snap.DroppedSpans != 2 {
		t.Fatalf("want 2 dropped, got %d", snap.DroppedSpans)
	}
}

func TestWriteTraceIsValidChromeJSON(t *testing.T) {
	r := NewRecorder()
	root := r.Start("engine.matrix")
	for i := 0; i < 3; i++ {
		c := root.Start("engine.cell")
		c.End()
	}
	root.End()
	orphanless := r.Start("ted.distance")
	orphanless.End()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 5 {
		t.Fatalf("want 5 events, got %d", len(tf.TraceEvents))
	}
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("non-complete event: %+v", ev)
		}
		if ev.Tid == 0 || ev.Pid != 1 {
			t.Fatalf("bad lane/pid: %+v", ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		names[ev.Name]++
	}
	if names["engine.cell"] != 3 || names["engine.matrix"] != 1 || names["ted.distance"] != 1 {
		t.Fatalf("bad event names: %v", names)
	}
}

func TestWriteMetricsFormats(t *testing.T) {
	r := NewRecorder()
	r.Counter("ted.cache.hits").Add(5)
	r.Histogram("engine.task_ns").Observe(100)
	sp := r.Start("index.unit")
	sp.End()

	var text bytes.Buffer
	if err := r.WriteMetrics(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{
		"silvervale_ted_cache_hits 5",
		"# TYPE silvervale_engine_task_ns histogram",
		`silvervale_engine_task_ns_bucket{le="+Inf"} 1`,
		"silvervale_engine_task_ns_count 1",
		`silvervale_span_count{name="index.unit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := r.WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if snap.Counters["ted.cache.hits"] != 5 || snap.Spans["index.unit"].Count != 1 {
		t.Fatalf("JSON snapshot mismatch: %+v", snap)
	}
}

// TestTraceLaneNesting verifies sequential children share their parent's
// lane while overlapping spans get distinct lanes, so Chrome renders true
// nesting.
func TestTraceLaneNesting(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root")
	a := root.Start("a")
	a.End()
	b := root.Start("b") // starts after a ended: same lane as root/a
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	tids := map[string]uint64{}
	for _, ev := range tf.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	if tids["a"] != tids["root"] || tids["b"] != tids["root"] {
		t.Fatalf("sequential children should share the root lane: %v", tids)
	}
}

// TestAdoptSumsOwnedCounters: Snapshot sums every counter adopted under a
// name with the recorder's own counter of that name; re-adopting a counter
// does not count it twice, and nil recorders and counters are ignored.
func TestAdoptSumsOwnedCounters(t *testing.T) {
	var a, b Counter
	a.Add(3) // counts from before adoption are reported too
	r := NewRecorder()
	r.Adopt("store.hits", &a)
	r.Adopt("store.hits", &b)
	r.Adopt("store.hits", &a)
	r.Adopt("store.misses", nil)
	b.Add(4)
	r.Counter("store.hits").Add(5)
	var nilRec *Recorder
	nilRec.Adopt("store.hits", &a)

	snap := r.Snapshot()
	if got := snap.Counters["store.hits"]; got != 12 {
		t.Fatalf("store.hits = %d, want 3+4+5", got)
	}
	if _, ok := snap.Counters["store.misses"]; ok {
		t.Fatalf("nil counter adopted: %v", snap.Counters)
	}
	var zero Counter
	r.Adopt("serve.errors", &zero)
	if got, ok := r.Snapshot().Counters["serve.errors"]; !ok || got != 0 {
		t.Fatalf("zero adopted counter must still be reported: %v", r.Snapshot().Counters)
	}

	// Modules attach from several goroutines while the recorder is read.
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Counter{}
			r.Adopt("engine.shared", c)
			c.Add(1)
			r.Snapshot()
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counters["engine.shared"]; got != goroutines {
		t.Fatalf("engine.shared = %d, want %d", got, goroutines)
	}
}

// TestSnapshotCostsNamesNotSpans: span aggregates are kept as spans end,
// so a snapshot (and the live /metrics scrape that renders one) allocates
// the same for ten thousand spans as for ten, and its aggregates still
// match the retained span buffer.
func TestSnapshotCostsNamesNotSpans(t *testing.T) {
	record := func(n int) *Recorder {
		r := NewRecorder()
		for i := 0; i < n; i++ {
			r.Start([]string{"a", "b"}[i%2]).End()
		}
		return r
	}
	small, large := record(10), record(10000)
	allocs := func(r *Recorder) float64 { return testing.AllocsPerRun(20, func() { r.Snapshot() }) }
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Snapshot allocates %v times for 10 spans, %v for 10000", a, b)
	}
	want := map[string]SpanAggregate{}
	for _, s := range large.Spans() {
		agg := want[s.Name]
		agg.Count++
		agg.TotalNS += s.Dur.Nanoseconds()
		agg.MaxNS = max(agg.MaxNS, s.Dur.Nanoseconds())
		want[s.Name] = agg
	}
	if got := large.Snapshot().Spans; !reflect.DeepEqual(got, want) {
		t.Fatalf("span aggregates %v, want %v from the span buffer", got, want)
	}
}
