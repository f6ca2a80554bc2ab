package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
	"silvervale/internal/obs"
)

// Diverges go through the engine's unit memo (DESIGN.md §14): a repeated
// diverge re-parses nothing, an uploaded mutation re-parses only its
// edited unit once, and every answer is byte-identical to what a fresh
// daemon computes from freshly indexed sources.

// uploadID uploads cb and returns its registry id.
func uploadID(t *testing.T, s *Server, cb *corpus.Codebase) string {
	t.Helper()
	w := post(s, "/v1/codebases", uploadBody(t, cb))
	if w.Code != http.StatusOK {
		t.Fatalf("upload %s: status %d: %s", cb.Model, w.Code, w.Body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.ID == "" {
		t.Fatalf("upload %s: bad response %q (%v)", cb.Model, w.Body, err)
	}
	return resp.ID
}

// divergeBody posts one diverge and returns its body.
func divergeBody(t *testing.T, s *Server, a, b string) []byte {
	t.Helper()
	w := post(s, "/v1/diverge", fmt.Sprintf(`{"a":%q,"b":%q,"metric":%q}`, a, b, core.MetricTsem))
	if w.Code != http.StatusOK {
		t.Fatalf("diverge status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// freshDiverge is the reference: a new daemon, the two codebases uploaded
// and diverged once, every unit indexed from scratch.
func freshDiverge(t *testing.T, a, b *corpus.Codebase) []byte {
	t.Helper()
	s := newServer(t, 1, 2, 8)
	return divergeBody(t, s, uploadID(t, s, a), uploadID(t, s, b))
}

// mutate returns a copy of cb with its kernels unit edited.
func mutate(t *testing.T, cb *corpus.Codebase, tag string) *corpus.Codebase {
	t.Helper()
	out := *cb
	out.Files = map[string]string{}
	for k, v := range cb.Files {
		out.Files[k] = v
	}
	for _, u := range cb.Units {
		if u.Role == "kernels" {
			out.Files[u.File] += "\n! mutation " + tag + "\n"
			return &out
		}
	}
	t.Fatalf("%s/%s has no kernels unit", cb.App, cb.Model)
	return nil
}

// servePorts generates the first two ports of the serve fixture.
func servePorts(t *testing.T) (*corpus.Codebase, *corpus.Codebase) {
	t.Helper()
	app, err := corpus.AppByName(serveApp)
	if err != nil {
		t.Fatal(err)
	}
	models := corpus.ModelsFor(app)
	a, err := corpus.Generate(app, models[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpus.Generate(app, models[1])
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestRepeatedDivergeReparsesNothing: the first diverge of two uploads
// indexes every unit once; a repeat re-parses 0 units. An uploaded
// mutation's diverge re-parses only the edited unit, and its repeat 0.
// Every body is byte-identical to a fresh daemon's answer.
func TestRepeatedDivergeReparsesNothing(t *testing.T) {
	cbA, cbB := servePorts(t)
	mut := mutate(t, cbB, "1")
	s := newServer(t, 1, 2, 8)
	eng := s.env.Engine()
	idA, idB, idM := uploadID(t, s, cbA), uploadID(t, s, cbB), uploadID(t, s, mut)

	for _, step := range []struct {
		what     string
		b        string
		cb       *corpus.Codebase
		reparsed int
	}{
		{"first diverge", idB, cbB, len(cbA.Units) + len(cbB.Units)},
		{"repeated diverge", idB, cbB, 0},
		{"mutation diverge", idM, mut, 1},
		{"repeated mutation diverge", idM, mut, 0},
	} {
		before := eng.IncrStats()
		got := divergeBody(t, s, idA, step.b)
		d := eng.IncrStats().Delta(before)
		units := len(cbA.Units) + len(step.cb.Units)
		if d.UnitsReparsed != step.reparsed || d.UnitsReused != units-step.reparsed {
			t.Errorf("%s: %d units reused, %d reparsed; want %d of %d reparsed",
				step.what, d.UnitsReused, d.UnitsReparsed, step.reparsed, units)
		}
		if want := freshDiverge(t, cbA, step.cb); !bytes.Equal(got, want) {
			t.Errorf("%s: body %s differs from a fresh daemon's %s", step.what, got, want)
		}
	}
}

// TestConcurrentDivergesOfNewUpload: many clients diverging the same
// just-uploaded mutation at once (its units not yet in the memo) all get
// byte-identical answers, equal to a fresh daemon's. Under -race this is
// the serve-level data-race gate for the unit memo.
func TestConcurrentDivergesOfNewUpload(t *testing.T) {
	cbA, cbB := servePorts(t)
	mut := mutate(t, cbB, "concurrent")
	want := freshDiverge(t, cbA, mut)
	s := newServer(t, 2, 4, 16)
	idA, idM := uploadID(t, s, cbA), uploadID(t, s, mut)
	const clients = 6
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := post(s, "/v1/diverge", fmt.Sprintf(`{"a":%q,"b":%q,"metric":%q}`, idA, idM, core.MetricTsem))
			codes[c], bodies[c] = w.Code, w.Body.Bytes()
		}()
	}
	wg.Wait()
	for c := range bodies {
		if codes[c] != http.StatusOK || !bytes.Equal(bodies[c], want) {
			t.Errorf("client %d: status %d, body %s; want %s", c, codes[c], bodies[c], want)
		}
	}
}

// scrape GETs /metrics and parses its counter lines.
func scrape(t *testing.T, s *Server) (int, map[string]int64) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]int64{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return w.Code, out
}

// TestMetricsScrape: GET /metrics is 404 on a daemon without a recorder;
// with one, a scrape taken after some requests — a matrix sweep, uploads,
// repeated diverges — shows the same incr.units_* and ted.cache.* values
// as the engine's IncrStats and CacheStats, with the repeated diverge's
// memo hits in silvervale_incr_units_reused.
func TestMetricsScrape(t *testing.T) {
	if code, _ := scrape(t, newServer(t, 1, 1, 1)); code != http.StatusNotFound {
		t.Fatalf("scrape without a recorder: status %d, want 404", code)
	}

	rec := obs.NewRecorder()
	env := experiments.NewEnvObs(1, rec)
	s := New(Config{Env: env, Recorder: rec, MaxInflight: 1, MaxQueue: 1})
	if w := post(s, "/v1/matrix", matrixBody(serveApp, core.MetricTsem)); w.Code != http.StatusOK {
		t.Fatalf("matrix = %d %s", w.Code, w.Body)
	}
	cbA, cbB := servePorts(t)
	idA, idB := uploadID(t, s, cbA), uploadID(t, s, cbB)
	divergeBody(t, s, idA, idB)
	_, first := scrape(t, s)
	divergeBody(t, s, idA, idB)
	code, got := scrape(t, s)
	if code != http.StatusOK {
		t.Fatalf("scrape status %d", code)
	}
	is, cs := env.Engine().IncrStats(), env.Engine().CacheStats()
	for name, want := range map[string]int64{
		"silvervale_incr_units_reused":   int64(is.UnitsReused),
		"silvervale_incr_units_reparsed": int64(is.UnitsReparsed),
		"silvervale_ted_cache_hits":      int64(cs.Hits),
		"silvervale_ted_cache_misses":    int64(cs.Misses),
		"silvervale_ted_cache_identity":  int64(cs.Identity),
		"silvervale_ted_cache_symmetric": int64(cs.Symmetric),
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Errorf("scraped %s = %d (present %v), typed stats say %d", name, v, ok, want)
		}
	}
	units := int64(len(cbA.Units) + len(cbB.Units))
	if d := got["silvervale_incr_units_reused"] - first["silvervale_incr_units_reused"]; d != units {
		t.Errorf("repeated diverge added %d to silvervale_incr_units_reused, want %d", d, units)
	}
	if d := got["silvervale_incr_units_reparsed"] - first["silvervale_incr_units_reparsed"]; d != 0 {
		t.Errorf("repeated diverge added %d to silvervale_incr_units_reparsed, want 0", d)
	}
	if got["silvervale_serve_requests"] != s.Stats().Requests {
		t.Errorf("scraped serve requests %d, stats %d", got["silvervale_serve_requests"], s.Stats().Requests)
	}
}
