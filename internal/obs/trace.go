package obs

import "context"

// Trace is the set of hooks that hear one request's search events as
// it runs. Every layer reads the hooks it fires from TraceFrom and
// leaves the others alone; a nil hook is not called. Hooks must be
// fast and non-blocking: the enumeration loops call Progress inline.
type Trace struct {
	// Progress hears periodic search progress: how many candidates
	// have been accounted for (evaluated or clipped) out of total.
	// Parallel passes may call it concurrently.
	Progress func(done, total int64)

	// Strategy hears the concrete solver a search resolved to — for
	// "auto", the strategy the heuristic picked — once per search,
	// before its enumeration starts.
	Strategy func(strategy string)

	// Cache hears how the result cache answered a call: "hit",
	// "miss" or "shared". It fires once per call on cached engines
	// and never on engines without a cache.
	Cache func(status string)
}

// traceKey carries the Trace in a context.
type traceKey struct{}

// WithTrace layers t over the trace ctx already carries: t's non-nil
// hooks replace the inherited ones and the rest are kept, so a layer
// that re-scopes one hook never loses the others.
func WithTrace(ctx context.Context, t Trace) context.Context {
	cur := TraceFrom(ctx)
	if t.Progress != nil {
		cur.Progress = t.Progress
	}
	if t.Strategy != nil {
		cur.Strategy = t.Strategy
	}
	if t.Cache != nil {
		cur.Cache = t.Cache
	}
	return context.WithValue(ctx, traceKey{}, cur)
}

// TraceFrom returns the trace ctx carries: the zero Trace (every hook
// nil) when there is none or ctx is nil.
func TraceFrom(ctx context.Context) Trace {
	if ctx == nil {
		return Trace{}
	}
	t, _ := ctx.Value(traceKey{}).(Trace)
	return t
}
