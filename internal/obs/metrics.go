package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
)

// SpanAggregate summarises every finished span of one name.
type SpanAggregate struct {
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// Snapshot is a point-in-time copy of everything the recorder holds, in a
// form both exporters and tests consume.
type Snapshot struct {
	Counters     map[string]int64             `json:"counters,omitempty"`
	Histograms   map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans        map[string]SpanAggregate     `json:"spans,omitempty"`
	DroppedSpans uint64                       `json:"dropped_spans,omitempty"`
}

// Snapshot copies the recorder's current state. Span aggregates are kept
// as spans end, so a snapshot costs the number of names, not of spans: a
// live scrape never copies the span buffer. A nil recorder returns an
// empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanAggregate{},
	}
	if r == nil {
		return snap
	}
	r.counters.Range(func(k, v any) bool {
		snap.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.adoptMu.Lock()
	for name, cs := range r.adopted {
		for _, c := range cs {
			snap.Counters[name] += c.Value()
		}
	}
	r.adoptMu.Unlock()
	r.hists.Range(func(k, v any) bool {
		snap.Histograms[k.(string)] = v.(*Histogram).snapshot()
		return true
	})
	r.mu.Lock()
	maps.Copy(snap.Spans, r.aggs)
	snap.DroppedSpans = r.dropped
	r.mu.Unlock()
	return snap
}

// promName maps a dot-delimited metric name onto the Prometheus grammar:
// "ted.cache.hits" -> "silvervale_ted_cache_hits".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("silvervale_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteMetrics renders the snapshot in Prometheus text exposition format:
// counters as counters, histograms with cumulative le-labelled buckets,
// span aggregates as count/duration pairs labelled by span name. Output is
// sorted, so identical states render byte-identically.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(snap.Counters) {
		p := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", p, p, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		p := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", p)
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", p, bk.UpperBound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", p, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", p, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", p, h.Count)
	}
	for _, name := range sortedKeys(snap.Spans) {
		agg := snap.Spans[name]
		fmt.Fprintf(&b, "silvervale_span_count{name=%q} %d\n", name, agg.Count)
		fmt.Fprintf(&b, "silvervale_span_duration_ns_total{name=%q} %d\n", name, agg.TotalNS)
	}
	if snap.DroppedSpans > 0 {
		fmt.Fprintf(&b, "silvervale_spans_dropped %d\n", snap.DroppedSpans)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMetricsJSON renders the snapshot as indented JSON.
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
