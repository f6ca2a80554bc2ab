// Package serve is the divergence-as-a-service daemon behind
// `silvervale serve` (DESIGN.md §14): an HTTP/JSON API over one shared
// experiments.Env — one core.Engine, one ted.Cache, one optional
// persistent store — so every client's sweep draws from the same warm
// memos. The serving layer adds exactly three production concerns on
// top of the one-shot CLI paths:
//
//   - cancellation: every sweep runs under the request context; a client
//     disconnect stops the engine at the next task-grant boundary and a
//     canceled sweep publishes nothing to the cell memo or the store;
//   - admission: at most MaxInflight sweeps run concurrently with
//     MaxQueue more waiting; overflow is a deterministic 429 with
//     Retry-After;
//   - observability: per-request serve.* spans, counters, and the
//     latency histogram on the same -metrics/-pprof surface the CLI has,
//     plus a live GET /metrics scrape of the same recorder.
//
// Responses reuse the CLI's JSON codecs, so a served matrix/phi payload
// is byte-identical to `matrix -json` / `phi -json` on the same inputs.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"silvervale/internal/experiments"
	"silvervale/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Env is the shared experiment environment (required). Its engine,
	// caches, and store are the daemon's entire warm state.
	Env *experiments.Env
	// Recorder enables per-request observability (nil disables it, the
	// same contract as everywhere else in the pipeline).
	Recorder *obs.Recorder
	// MaxInflight bounds concurrently running sweeps (default 2).
	MaxInflight int
	// MaxQueue bounds sweeps waiting for a slot (default 8). Overflow
	// beyond MaxInflight+MaxQueue is rejected with 429.
	MaxQueue int
	// RetryAfter is the hint returned with 429 responses (default 1s,
	// rounded up to whole seconds for the header).
	RetryAfter time.Duration
}

// Stats is the GET /v1/stats payload: always-on atomic counters (they
// exist independently of the obs recorder, so the shutdown stats line
// and the smoke tests never need -metrics).
type Stats struct {
	Requests int64 `json:"requests"`
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
	Canceled int64 `json:"canceled"`
	Errors   int64 `json:"errors"`
}

// Line renders the one-line form the daemon prints at shutdown.
func (s Stats) Line() string {
	return fmt.Sprintf("serve: %d requests, %d rejected, %d canceled, %d errors",
		s.Requests, s.Rejected, s.Canceled, s.Errors)
}

// Server is the daemon: an http.Handler serving sweeps from one shared
// engine. Safe for concurrent use; construct with New.
type Server struct {
	env        *experiments.Env
	rec        *obs.Recorder
	adm        *admission
	reg        *registry
	mux        *http.ServeMux
	retryAfter string

	// counts is the always-on request accounting, adopted by the
	// recorder under the serve.* names (DESIGN.md §5) alongside the
	// admission gauge as serve.inflight.
	counts *serveCounters

	// holdSweep, when set (tests only), is invoked inside every admitted
	// request while it holds its admission slot — the deterministic way
	// to pin the daemon at full capacity for overflow tests.
	holdSweep func()
}

// serveCounters are the server's request counters, allocated apart from
// the Server like every module's adopted counters.
type serveCounters struct {
	requests, rejected, canceled, errors obs.Counter
}

// New builds a Server over a shared environment.
func New(cfg Config) *Server {
	if cfg.Env == nil {
		panic("serve: Config.Env is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	retrySecs := int64(cfg.RetryAfter / time.Second)
	if cfg.RetryAfter%time.Second != 0 {
		retrySecs++
	}
	s := &Server{
		env:        cfg.Env,
		rec:        cfg.Recorder,
		adm:        newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		reg:        newRegistry(),
		retryAfter: strconv.FormatInt(retrySecs, 10),
		counts:     &serveCounters{},
	}
	k := s.counts
	for name, c := range map[string]*obs.Counter{
		"serve.requests": &k.requests,
		"serve.inflight": &s.adm.inflight,
		"serve.rejected": &k.rejected,
		"serve.canceled": &k.canceled,
		"serve.errors":   &k.errors,
	} {
		s.rec.Adopt(name, c)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/codebases", s.handle("/v1/codebases", false, s.handleCodebases))
	s.mux.HandleFunc("/v1/diverge", s.handle("/v1/diverge", true, s.handleDiverge))
	s.mux.HandleFunc("/v1/matrix", s.handle("/v1/matrix", true, s.handleMatrix))
	s.mux.HandleFunc("/v1/frombase", s.handle("/v1/frombase", true, s.handleFromBase))
	s.mux.HandleFunc("/v1/phi", s.handle("/v1/phi", true, s.handlePhi))
	s.mux.HandleFunc("/v1/sweep", s.handle("/v1/sweep", true, s.handleSweep))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the request accounting.
func (s *Server) Stats() Stats {
	k := s.counts
	return Stats{
		Requests: k.requests.Value(),
		Inflight: s.adm.Inflight(),
		Queued:   s.adm.Queued(),
		Rejected: k.rejected.Value(),
		Canceled: k.canceled.Value(),
		Errors:   k.errors.Value(),
	}
}

// handle wraps an endpoint with request accounting, per-request obs, and
// (for sweep endpoints) admission control. The inner handler returns an
// error instead of writing error responses itself; classification — 4xx
// from *httpError, "canceled" for context errors, 500 otherwise —
// happens in exactly one place.
func (s *Server) handle(endpoint string, admit bool, fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.counts.requests.Add(1)
		req := s.rec.BeginRequest(endpoint)
		if admit {
			release, err := s.adm.acquire(r.Context())
			if err != nil {
				if errors.Is(err, errOverflow) {
					s.counts.rejected.Add(1)
					w.Header().Set("Retry-After", s.retryAfter)
					writeError(w, http.StatusTooManyRequests, "sweep capacity exhausted, retry later")
					req.End(http.StatusTooManyRequests, "rejected")
					return
				}
				// Client went away while queued; nobody is listening for
				// a response body.
				s.counts.canceled.Add(1)
				req.End(statusClientClosedRequest, "canceled")
				return
			}
			defer release()
			if s.holdSweep != nil {
				s.holdSweep()
			}
		}
		err := fn(w, r)
		if err == nil {
			req.End(http.StatusOK, "ok")
			return
		}
		if errors.Is(err, errCtxDone) || r.Context().Err() != nil {
			s.counts.canceled.Add(1)
			req.End(statusClientClosedRequest, "canceled")
			return
		}
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.status, he.msg)
			req.End(he.status, "rejected")
			return
		}
		s.counts.errors.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		req.End(http.StatusInternalServerError, "error")
	}
}

// statusClientClosedRequest is the conventional (nginx) status for a
// request whose client disconnected; it is recorded in obs but never
// sent — there is no one to send it to.
const statusClientClosedRequest = 499

// errCtxDone tags handler errors caused by request-context cancellation
// (the engine returns context.Canceled, which errors.Is matches via the
// context package; this sentinel exists for handlers that detect the
// disconnect themselves).
var errCtxDone = errors.New("serve: request context done")

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if err := writeJSON(w, s.Stats()); err != nil {
		return
	}
}

// handleMetrics is the live scrape: the recorder's Prometheus text (the
// same rendering -metrics writes at exit), read from the counters every
// module updates as it goes. 404 when the daemon runs without a recorder.
// Like healthz and stats, a scrape is not a counted request.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WriteMetrics(w)
}
