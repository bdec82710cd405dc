package optimize

import (
	"context"
	"sync"
	"sync/atomic"

	"uptimebroker/internal/obs"
)

// progressEvery is how many candidates pass between hook invocations.
// Matches the cancellation poll cadence: cheap enough to vanish in
// profiles, frequent enough that watchers see sub-millisecond-fresh
// numbers on large spaces.
const progressEvery = 64

// progressTicker amortizes hook calls across enumeration iterations.
type progressTicker struct {
	fn    func(done, total int64)
	space int64
	n     int64
}

// newProgressTicker builds the ticker for one enumeration run over p.
func newProgressTicker(ctx context.Context, p *Problem) progressTicker {
	fn := obs.TraceFrom(ctx).Progress
	if fn == nil {
		return progressTicker{}
	}
	return progressTicker{fn: fn, space: int64(p.SpaceSize())}
}

// advance accounts for k more candidates (evaluated or clipped) and
// reports on the cadence boundary.
func (t *progressTicker) advance(k int64) {
	if t.fn == nil {
		return
	}
	before := t.n / progressEvery
	t.n += k
	if t.n/progressEvery != before {
		t.fn(t.n, t.space)
	}
}

// done emits the final report.
func (t *progressTicker) done() {
	if t.fn != nil {
		t.fn(t.n, t.space)
	}
}

// sharedTicker is the progressTicker for concurrent enumerations:
// workers advance a single atomic counter, and whichever worker
// crosses a cadence boundary emits the report. Emissions are
// serialized through a high-water mark, so the hook observes a
// strictly increasing evaluated count even when workers race across
// cadence boundaries — consumers never see the bar move backwards.
type sharedTicker struct {
	fn    func(done, total int64)
	space int64
	n     atomic.Int64

	mu       sync.Mutex
	reported int64
}

func newSharedTicker(ctx context.Context, p *Problem) *sharedTicker {
	fn := obs.TraceFrom(ctx).Progress
	if fn == nil {
		return &sharedTicker{}
	}
	return &sharedTicker{fn: fn, space: int64(p.SpaceSize())}
}

func (t *sharedTicker) advance(k int64) {
	if t.fn == nil {
		return
	}
	after := t.n.Add(k)
	if after/progressEvery != (after-k)/progressEvery {
		t.emit(after)
	}
}

func (t *sharedTicker) done() {
	if t.fn != nil {
		t.emit(t.n.Load())
	}
}

// emit reports v through the hook unless a higher value already went
// out (a final done() report may repeat the last value). The hook
// runs under the ticker's lock; the Trace hook contract (fast,
// non-blocking) keeps the critical section negligible next to the
// 64-candidate emission cadence.
func (t *sharedTicker) emit(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v < t.reported {
		return
	}
	t.reported = v
	t.fn(v, t.space)
}

// reportStrategy tells the context's Trace which solver a search
// resolved to, if it has a Strategy hook.
func reportStrategy(ctx context.Context, strategy string) {
	if fn := obs.TraceFrom(ctx).Strategy; fn != nil {
		fn(strategy)
	}
}
