// Measured-Φ plumbing: the experiments environment can source every
// performance figure (cascades, navigation charts, fig15) from
// interpreter-measured cost vectors instead of the modeled landscape.
// Profiles are built once per app under the environment mutex — one task
// per port on the engine's worker pool, each writing its own slot, then
// combined in stable model order, so measured figures are bit-identical
// across runs and worker counts — and the same single interpreter
// execution also yields the port's coverage mask (DESIGN.md §11).
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/interp"
	"silvervale/internal/navchart"
	"silvervale/internal/perf"
)

// Φ sources accepted by SetPhiSource (the CLI's -phi-source values).
const (
	PhiSourceModeled  = "modeled"
	PhiSourceMeasured = "measured"
)

// SetPhiSource selects where performance figures draw Φ from.
func (e *Env) SetPhiSource(src string) error {
	if src != PhiSourceModeled && src != PhiSourceMeasured {
		return fmt.Errorf("experiments: unknown phi source %q (want %s or %s)",
			src, PhiSourceModeled, PhiSourceMeasured)
	}
	e.mu.Lock()
	e.phiSource = src
	e.mu.Unlock()
	return nil
}

// PhiSource returns the active Φ source.
func (e *Env) PhiSource() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.phiSource
}

// ProfileRuns reports how many interpreter profiling executions the
// environment has performed — the single-pass regression gate asserts
// this stays at exactly one per (app, model) across a whole sweep.
func (e *Env) ProfileRuns() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.profileRuns
}

// MeasuredSet returns (profiling every C++ port on first use) the app's
// measured cost set. The build runs under the environment mutex, one
// profile per port as a task on the engine's worker pool: each task fills
// its port's slot, and the cost set is assembled afterwards in CXXModels
// order, so the resulting efficiencies are bit-identical for every worker
// count.
func (e *Env) MeasuredSet(appName string) (*perf.MeasuredSet, error) {
	app, err := corpus.AppByName(appName)
	if err != nil {
		return nil, err
	}
	if app.Lang != corpus.LangCXX {
		return nil, fmt.Errorf("experiments: measured phi requires a C++ app, %s is %s", appName, app.Lang)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if set, ok := e.measured[appName]; ok {
		return set, nil
	}
	sp := e.rec.Start("interp.profile").Arg("app", appName)
	defer sp.End()
	models := corpus.CXXModels()
	profs := make([]*interp.Profile, len(models))
	errs := make([]error, len(models))
	var runs atomic.Int64
	ctxErr := e.engine.RunTasks(context.Background(), len(models), func(k int) {
		cb, err := corpus.Generate(app, models[k])
		if err != nil {
			errs[k] = err
			return
		}
		rp, err := core.ProfileCodebase(cb, sp)
		if err != nil {
			errs[k] = err
			return
		}
		runs.Add(1)
		profs[k] = rp.Cost
	})
	e.profileRuns += runs.Load()
	if err := firstError(errs, ctxErr); err != nil {
		return nil, err
	}
	var serial *interp.Profile
	for k, m := range models {
		if m == corpus.Serial {
			serial = profs[k]
		}
	}
	costs := make(map[corpus.Model]perf.AppCost, len(models))
	for k, m := range models {
		costs[m] = perf.BuildAppCost(app, m, serial, profs[k])
	}
	set := perf.NewMeasuredSet(appName, models, costs)
	e.measured[appName] = set
	return set, nil
}

// phiFns resolves the Φ source src into the two functions the
// performance figures consume: per-(model, platform) efficiency and
// per-(model, platform-set) Φ. The modeled pair closes over the
// hand-written landscape; the measured pair over the app's MeasuredSet.
func (e *Env) phiFns(appName, src string) (
	eff func(corpus.Model, perf.Platform) float64,
	phi func(corpus.Model, []perf.Platform) float64,
	err error,
) {
	if src == PhiSourceMeasured {
		set, err := e.MeasuredSet(appName)
		if err != nil {
			return nil, nil, err
		}
		return set.Efficiency, set.AppPhi, nil
	}
	return func(m corpus.Model, p perf.Platform) float64 {
			return perf.Efficiency(appName, m, p)
		}, func(m corpus.Model, plats []perf.Platform) float64 {
			return perf.AppPhi(appName, m, plats)
		}, nil
}

// NavChart assembles the navigation chart of a C++ app (divergence base
// serial, full platform set) under the active Φ source — the JSON the
// phi subcommand emits. Measured charts carry per-model cost summaries.
func (e *Env) NavChart(appName string) (*navchart.Chart, error) {
	return e.NavChartCtx(context.Background(), appName, e.PhiSource())
}

// NavChartCtx is NavChart under a cancellation context and an explicit Φ
// source (the serve daemon's phi endpoint, where each request may pick
// its own). It reads no source from the environment, so the chart's
// label and its efficiencies always agree. Both FromBase sweeps check ctx
// at task grants; a canceled request returns ctx.Err() with no chart.
func (e *Env) NavChartCtx(ctx context.Context, appName, src string) (*navchart.Chart, error) {
	idxs, order, err := e.IndexesCtx(ctx, appName)
	if err != nil {
		return nil, err
	}
	tsem, err := e.engine.FromBaseCtx(ctx, idxs, "serial", order, core.MetricTsem)
	if err != nil {
		return nil, err
	}
	tsrc, err := e.engine.FromBaseCtx(ctx, idxs, "serial", order, core.MetricTsrc)
	if err != nil {
		return nil, err
	}
	eff, _, err := e.phiFns(appName, src)
	if err != nil {
		return nil, err
	}
	ch := navchart.BuildPhi(appName, "serial", tsem, tsrc, corpus.CXXModels(), perf.Platforms(), src, eff)
	// Stamp each point with its units' tsem fingerprints: the chart then
	// content-addresses the trees it was computed from (DESIGN.md §12).
	for i := range ch.Points {
		idx, ok := idxs[ch.Points[i].Model]
		if !ok {
			continue
		}
		for j := range idx.Units {
			u := &idx.Units[j]
			ch.Points[i].Units = append(ch.Points[i].Units, navchart.UnitFingerprint{
				File:        u.File,
				Role:        u.Role,
				Fingerprint: u.TreeFingerprint(core.MetricTsem).String(),
			})
		}
	}
	if src == PhiSourceMeasured {
		set, err := e.MeasuredSet(appName)
		if err != nil {
			return nil, err
		}
		for i := range ch.Points {
			c, ok := set.Costs[corpus.Model(ch.Points[i].Model)]
			if !ok {
				continue
			}
			total := c.Host
			var calls int64
			for _, k := range c.Kernels {
				total.Add(k.Model)
				calls += k.Model.Calls
			}
			ch.Points[i].Cost = &navchart.CostSummary{
				Stmts:       total.Stmts,
				LoopTrips:   total.LoopTrips,
				MemBytes:    total.MemBytes,
				Flops:       total.Flops,
				KernelCalls: calls,
			}
		}
	}
	return ch, nil
}
