package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"silvervale/internal/obs"
)

// Admission control (DESIGN.md §14). Sweeps are CPU-bound and share one
// engine, so unbounded concurrency only adds scheduling overhead and
// memory pressure; the daemon instead runs at most MaxInflight sweeps
// with at most MaxQueue more waiting. The accounting is a single atomic
// counter over admitted requests (in-flight + queued) with a channel
// semaphore for the in-flight bound: the counter makes overflow
// deterministic — k concurrent requests against a full daemon yield
// exactly k - (MaxInflight + MaxQueue) rejections, regardless of
// scheduling — and the semaphore makes waiting cancellable, so a client
// that disconnects while queued frees its slot immediately.

// errOverflow reports an admission rejection (HTTP 429).
var errOverflow = errors.New("serve: admission queue full")

type admission struct {
	slots    chan struct{} // in-flight semaphore, cap MaxInflight
	admitted atomic.Int64  // in-flight + queued
	inflight obs.Counter   // holding a slot right now (serve.inflight)
	limit    int64         // MaxInflight + MaxQueue
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots: make(chan struct{}, maxInflight),
		limit: int64(maxInflight + maxQueue),
	}
}

// acquire admits the request or fails fast: errOverflow when admitted
// requests already fill every slot and queue position, ctx.Err() when the
// caller went away while queued. On success the returned release must be
// called exactly once, after the sweep finishes.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a.admitted.Add(1) > a.limit {
		a.admitted.Add(-1)
		return nil, errOverflow
	}
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		a.admitted.Add(-1)
		return nil, ctx.Err()
	}
	a.inflight.Add(1)
	return func() {
		a.inflight.Add(-1)
		<-a.slots
		a.admitted.Add(-1)
	}, nil
}

// Inflight returns how many sweeps hold a slot right now.
func (a *admission) Inflight() int64 { return a.inflight.Value() }

// Queued returns how many admitted requests are waiting for a slot.
func (a *admission) Queued() int64 {
	q := a.admitted.Load() - a.inflight.Value()
	if q < 0 {
		q = 0
	}
	return q
}
