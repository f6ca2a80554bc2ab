package serve

import (
	"encoding/json"
	"net/http"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/experiments"
)

// validMetric checks a request metric against the Table I registry.
func validMetric(metric string) bool {
	for _, m := range core.Metrics() {
		if m == metric {
			return true
		}
	}
	return false
}

// --- /v1/codebases -----------------------------------------------------------

func (s *Server) handleCodebases(w http.ResponseWriter, r *http.Request) error {
	if r.Method == http.MethodGet {
		return writeJSON(w, map[string]any{"codebases": s.reg.list()})
	}
	var up codebaseUpload
	if err := decodeRequest(w, r, &up); err != nil {
		return err
	}
	cb, err := up.toCodebase()
	if err != nil {
		return badRequest("invalid codebase: %v", err)
	}
	id := s.reg.put(cb)
	return writeJSON(w, map[string]any{
		"id": id, "app": cb.App, "model": string(cb.Model), "units": len(cb.Units),
	})
}

// --- /v1/diverge -------------------------------------------------------------

// divergeRequest compares two uploaded codebases by registry id.
type divergeRequest struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Metric string `json:"metric"`
}

func (s *Server) handleDiverge(w http.ResponseWriter, r *http.Request) error {
	var req divergeRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if req.Metric == "" {
		req.Metric = core.MetricTsem
	}
	if !validMetric(req.Metric) {
		return badRequest("unknown metric %q", req.Metric)
	}
	ca, ok := s.reg.get(req.A)
	if !ok {
		return badRequest("unknown codebase id %q", req.A)
	}
	cbB, ok := s.reg.get(req.B)
	if !ok {
		return badRequest("unknown codebase id %q", req.B)
	}
	ctx := r.Context()
	engine := s.env.Engine()
	ia, err := engine.IndexCodebaseCtx(ctx, ca, core.Options{})
	if err != nil {
		return err
	}
	ib, err := engine.IndexCodebaseCtx(ctx, cbB, core.Options{})
	if err != nil {
		return err
	}
	d, err := engine.Diverge(ia, ib, req.Metric)
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]any{
		"a": req.A, "b": req.B, "metric": req.Metric,
		"raw": d.Raw, "dmax": d.DMax, "norm": d.Norm,
	})
}

// --- /v1/matrix --------------------------------------------------------------

// matrixRequest asks for the all-pairs divergence matrix of a corpus app.
type matrixRequest struct {
	App    string `json:"app"`
	Metric string `json:"metric"`
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) error {
	var req matrixRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if req.Metric == "" {
		req.Metric = core.MetricTsem
	}
	if err := validateApp(req.App); err != nil {
		return err
	}
	if !validMetric(req.Metric) {
		return badRequest("unknown metric %q", req.Metric)
	}
	ctx := r.Context()
	m, order, err := s.env.MatrixCtx(ctx, req.App, req.Metric)
	if err != nil {
		return err
	}
	idxs, _, err := s.env.IndexesCtx(ctx, req.App)
	if err != nil {
		return err
	}
	payload := BuildMatrixPayload(req.App, req.Metric, order, m, idxs)
	w.Header().Set("Content-Type", "application/json")
	return payload.WriteJSON(w)
}

// --- /v1/frombase ------------------------------------------------------------

// fromBaseRequest asks for every model's divergence from a base model.
type fromBaseRequest struct {
	App    string `json:"app"`
	Base   string `json:"base"`
	Metric string `json:"metric"`
}

func (s *Server) handleFromBase(w http.ResponseWriter, r *http.Request) error {
	var req fromBaseRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if req.Base == "" {
		req.Base = "serial"
	}
	if req.Metric == "" {
		req.Metric = core.MetricTsem
	}
	if err := validateApp(req.App); err != nil {
		return err
	}
	if !validMetric(req.Metric) {
		return badRequest("unknown metric %q", req.Metric)
	}
	ctx := r.Context()
	idxs, _, err := s.env.IndexesCtx(ctx, req.App)
	if err != nil {
		return err
	}
	if _, ok := idxs[req.Base]; !ok {
		return badRequest("app %q has no model %q", req.App, req.Base)
	}
	values, order, err := s.env.FromBaseCtx(ctx, req.App, req.Base, req.Metric)
	if err != nil {
		return err
	}
	payload := BuildFromBasePayload(req.App, req.Base, req.Metric, order, values, idxs[req.Base])
	w.Header().Set("Content-Type", "application/json")
	return encodeIndented(w, payload)
}

// --- /v1/phi -----------------------------------------------------------------

// phiRequest asks for an app's navigation chart (Φ vs TBMD divergence).
type phiRequest struct {
	App string `json:"app"`
	// PhiSource optionally selects "modeled" or "measured" for this
	// request only; empty means the daemon's own source. Measured
	// requires a C++ app and profiles it once per environment.
	PhiSource string `json:"phi_source"`
}

func (s *Server) handlePhi(w http.ResponseWriter, r *http.Request) error {
	var req phiRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if err := validateApp(req.App); err != nil {
		return err
	}
	src := req.PhiSource
	switch src {
	case "":
		src = s.env.PhiSource()
	case experiments.PhiSourceModeled, experiments.PhiSourceMeasured:
	default:
		return badRequest("unknown phi source %q", req.PhiSource)
	}
	ch, err := s.env.NavChartCtx(r.Context(), req.App, src)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	return ch.WriteJSON(w)
}

// --- /v1/sweep ---------------------------------------------------------------

// sweepRequest streams one matrix per metric as NDJSON — the long-poll
// form for clients that want results as they complete rather than one
// monolithic payload.
type sweepRequest struct {
	App     string   `json:"app"`
	Metrics []string `json:"metrics"`
}

// sweepLine is one NDJSON line of a streamed sweep.
type sweepLine struct {
	App    string      `json:"app"`
	Metric string      `json:"metric"`
	Order  []string    `json:"order"`
	Matrix [][]float64 `json:"matrix"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req sweepRequest
	if err := decodeRequest(w, r, &req); err != nil {
		return err
	}
	if err := validateApp(req.App); err != nil {
		return err
	}
	if len(req.Metrics) == 0 {
		req.Metrics = core.Metrics()
	}
	for _, m := range req.Metrics {
		if !validMetric(m) {
			return badRequest("unknown metric %q", m)
		}
	}
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, metric := range req.Metrics {
		m, order, err := s.env.MatrixCtx(ctx, req.App, metric)
		if err != nil {
			// Mid-stream failures cannot change the status line (already
			// sent); emit a terminal error line instead.
			if ctx.Err() != nil {
				return errCtxDone
			}
			_ = enc.Encode(map[string]string{"error": err.Error(), "metric": metric})
			return nil
		}
		if err := enc.Encode(sweepLine{App: req.App, Metric: metric, Order: order, Matrix: m}); err != nil {
			return errCtxDone // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	return nil
}

// validateApp checks the app against the corpus registry.
func validateApp(app string) error {
	if app == "" {
		return badRequest("app is required")
	}
	if _, err := corpus.AppByName(app); err != nil {
		return badRequest("%v", err)
	}
	return nil
}
