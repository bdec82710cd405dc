package broker

import (
	"context"

	"uptimebroker/internal/obs"
	"uptimebroker/internal/reccache"
)

// reportCacheStatus tells the context Trace's Cache hook, if any, how
// the result cache answered the call.
func reportCacheStatus(ctx context.Context, status reccache.Status) {
	if fn := obs.TraceFrom(ctx).Cache; fn != nil {
		fn(string(status))
	}
}

// Per-value resident-size estimates for the cache's byte budget. They
// only need to be proportionate, not exact: the budget is approximate
// by contract, and every entry is dominated by its card slice.
const (
	cardOverhead           = 120 // OptionCard struct + slice header slack
	choiceOverhead         = 48  // Choice struct + string headers
	recommendationOverhead = 160 // Recommendation struct + strings
)

// cardsBytes estimates the resident size of a card slice.
func cardsBytes(cards []OptionCard) int64 {
	n := int64(0)
	for i := range cards {
		n += cardOverhead
		for _, ch := range cards[i].Choices {
			n += choiceOverhead + int64(len(ch.Component)+len(ch.TechID))
		}
	}
	return n
}

// Recommend runs the full brokerage flow for one request (see
// recommend for the search itself). With a result cache attached
// (WithResultCache), the request is first normalized and content-
// addressed: repeated identical requests are answered from the cache
// in O(1) without compiling anything, and concurrent identical
// requests collapse into a single search whose result every caller
// shares. The returned *Recommendation may therefore be shared —
// treat it as read-only. The context Trace's Cache hook hears which
// of the three ways the call was answered: "hit" (no search ran),
// "miss" (this call ran the search) or "shared" (this call joined
// another caller's identical in-flight search). It fires once, after
// the result is available, and never on engines without a cache.
//
// The search runs detached from any single caller's cancellation: ctx
// cancellation makes this call return ctx.Err() immediately, but the
// underlying search keeps running while other callers wait on it, and
// is abandoned only when the last of them leaves.
func (e *Engine) Recommend(ctx context.Context, req Request) (*Recommendation, error) {
	req = normalize(req)
	if e.cache == nil {
		return e.recommend(ctx, req)
	}
	v, status, err := e.cache.Do(ctx, e.cacheKey("recommend", req), func(fctx context.Context) (any, int64, error) {
		rec, err := e.recommend(fctx, req)
		if err != nil {
			return nil, 0, err
		}
		return rec, recommendationOverhead + cardsBytes(rec.Cards), nil
	})
	if err != nil {
		return nil, err
	}
	reportCacheStatus(ctx, status)
	return v.(*Recommendation), nil
}

// Pareto runs the brokerage and returns only the cost × uptime
// frontier cards (see pareto). Caching behaves exactly as on
// Recommend — normalized content-addressed lookups, singleflight
// collapse, shared read-only results, the Trace's Cache hook — under
// keys disjoint from Recommend's (the two answer shapes never alias).
func (e *Engine) Pareto(ctx context.Context, req Request) ([]OptionCard, error) {
	req = normalize(req)
	if e.cache == nil {
		return e.pareto(ctx, req)
	}
	v, status, err := e.cache.Do(ctx, e.cacheKey("pareto", req), func(fctx context.Context) (any, int64, error) {
		front, err := e.pareto(fctx, req)
		if err != nil {
			return nil, 0, err
		}
		return front, cardsBytes(front), nil
	})
	if err != nil {
		return nil, err
	}
	reportCacheStatus(ctx, status)
	return v.([]OptionCard), nil
}
