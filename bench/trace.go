package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"silvervale/internal/obs"
)

// The benchmark's own tracer. Spans wrap the benchmark's calls into each
// module's public functions; nothing inside the program is instrumented
// by it. A nil *tracer is the untraced mode: begin returns 0 and end
// ignores it, so untraced runs pay one pointer check per call.

// span is one finished (or open) call. Root spans (Parent 0) are the
// workload's operations; their names start with "op.".
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer returns an enabled tracer and an obs recorder whose clocks
// start together, so program-side obs spans can be placed inside the
// benchmark's operation windows.
func newTracer() (*tracer, *obs.Recorder) {
	rec := obs.NewRecorder()
	return &tracer{epoch: time.Now()}, rec
}

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// now returns the tracer clock (0 when untraced).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// split is the layer split of a traced phase: the summed wall time of its
// operations, each layer's self time, and the unattributed remainder
// (operation time no layer span covers).
type split struct {
	ops    int
	wall   time.Duration
	layers map[string]time.Duration
	// windows are the operation intervals and layerWin each layer's span
	// intervals, for placing obs spans.
	windows  []interval
	layerWin map[string][]interval
}

func (s *split) unattributed() time.Duration { return s.layers["(unattributed)"] }

// splits groups finished spans by root operation name (from after) and
// derives each layer's self time: a span's duration minus the part of it
// its child spans cover.
func (t *tracer) splits(after time.Duration) map[string]*split {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]interval{}
	root := make([]int, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			root[s.ID] = root[s.Parent]
		} else {
			root[s.ID] = s.ID
		}
	}
	out := map[string]*split{}
	for _, s := range spans {
		r := spans[root[s.ID]-1]
		if r.Start < after || !strings.HasPrefix(r.Name, "op.") {
			continue
		}
		sp := out[r.Name]
		if sp == nil {
			sp = &split{layers: map[string]time.Duration{}, layerWin: map[string][]interval{}}
			out[r.Name] = sp
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		name := s.Name
		if s.Parent == 0 {
			sp.ops++
			sp.wall += s.End - s.Start
			sp.windows = append(sp.windows, interval{s.Start, s.End})
			name = "(unattributed)"
		} else {
			sp.layerWin[name] = append(sp.layerWin[name], interval{s.Start, s.End})
		}
		sp.layers[name] += self
	}
	return out
}

// obsBusy sums the durations of obs spans named name that lie inside one
// of the windows (sorted by start): the busy time of that program layer,
// summed over worker goroutines.
func obsBusy(all []obs.SpanRecord, name string, windows []interval) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range all {
		if s.Name != name || !inWindows(s.Start, s.Start+s.Dur, windows) {
			continue
		}
		total += s.Dur
		n++
	}
	return total, n
}

// inWindows reports whether [lo, hi] lies inside one of the windows.
// Windows overlap only as far as concurrent clients overlap, so the few
// windows starting last before lo are the only candidates.
func inWindows(lo, hi time.Duration, windows []interval) bool {
	i := sort.Search(len(windows), func(i int) bool { return windows[i].lo > lo })
	for k := i - 1; k >= 0 && k >= i-4; k-- {
		if windows[k].hi >= hi {
			return true
		}
	}
	return false
}

// sortWindows orders a split's windows for inWindows.
func (s *split) sortWindows() {
	sort.Slice(s.windows, func(i, j int) bool { return s.windows[i].lo < s.windows[j].lo })
}

// refine attributes part of a layer's self time to program layers
// measured inside it: part p receives whole·busy(p)/den, where busy sums
// the obs spans named p inside the layer's own spans and den is the
// layer's total busy time (worker time when its work runs in parallel,
// wall time when serial). The remainder keeps the layer's name.
func (s *split) refine(all []obs.SpanRecord, layer string, den time.Duration, parts map[string]string) {
	whole := s.layers[layer]
	if whole == 0 || den <= 0 {
		return
	}
	win := append([]interval(nil), s.layerWin[layer]...)
	sort.Slice(win, func(i, j int) bool { return win[i].lo < win[j].lo })
	var given time.Duration
	for _, name := range sortedKeys(parts) {
		b, _ := obsBusy(all, parts[name], win)
		d := time.Duration(float64(whole) * min(float64(b)/float64(den), 1))
		d = min(d, whole-given)
		s.layers[name] += d
		given += d
	}
	s.layers[layer] -= given
}

// carve moves d of a layer's self time to a part measured separately.
func (s *split) carve(layer, part string, d time.Duration) {
	d = min(d, s.layers[layer])
	s.layers[layer] -= d
	s.layers[part] += d
}

// busyIn sums obs spans named name inside a layer's own spans.
func (s *split) busyIn(all []obs.SpanRecord, layer, name string) time.Duration {
	win := append([]interval(nil), s.layerWin[layer]...)
	sort.Slice(win, func(i, j int) bool { return win[i].lo < win[j].lo })
	b, _ := obsBusy(all, name, win)
	return b
}

// share returns the fraction of the phase's wall time spent in the named
// layers.
func (s *split) share(layers ...string) float64 {
	if s == nil || s.wall == 0 {
		return 0
	}
	var t time.Duration
	for _, l := range layers {
		t += s.layers[l]
	}
	return float64(t) / float64(s.wall)
}

// writeSplits prints each phase's layer split, largest layer first.
func writeSplits(w io.Writer, workload string, sp map[string]*split) {
	for _, phase := range sortedKeys(sp) {
		s := sp[phase]
		type kv struct {
			name string
			d    time.Duration
		}
		var rows []kv
		for name, d := range s.layers {
			rows = append(rows, kv{name, d})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
		var b strings.Builder
		fmt.Fprintf(&b, "%s split %s: %d ops, %.1f ms wall:", workload, phase, s.ops, ms(s.wall))
		for _, r := range rows {
			fmt.Fprintf(&b, " %s %.1f%%", r.name, 100*float64(r.d)/float64(s.wall))
		}
		fmt.Fprintln(w, b.String())
	}
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Spans    []span                        `json:"spans"`
	Splits   map[string]map[string]float64 `json:"splits_ms"`
}

// save writes every span plus the phase splits to cfg.out.
func (t *tracer) save(cfg config, sp map[string]*split) error {
	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, Splits: map[string]map[string]float64{}}
	t.mu.Lock()
	tf.Spans = append(tf.Spans, t.spans...)
	t.mu.Unlock()
	for phase, s := range sp {
		m := map[string]float64{"(wall)": ms(s.wall)}
		for name, d := range s.layers {
			m[name] = ms(d)
		}
		tf.Splits[phase] = m
	}
	return writeJSONFile(cfg, fmt.Sprintf("%s-seed%d-trace.json", cfg.workload, cfg.seed), tf)
}
