package broker

import (
	"context"
	"slices"
	"sort"
	"sync"

	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
)

// ParetoCards filters option cards to the cost × uptime frontier: a
// card survives unless some other card offers at least the uptime for
// at most the HA cost (with one strict improvement). The frontier is
// the menu for customers negotiating SLA terms rather than accepting
// the single TCO optimum; it is returned sorted by ascending HA cost.
func ParetoCards(cards []OptionCard) []OptionCard {
	if len(cards) == 0 {
		return nil
	}
	sorted := append([]OptionCard(nil), cards...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].HACost != sorted[j].HACost {
			return sorted[i].HACost < sorted[j].HACost
		}
		if sorted[i].Uptime != sorted[j].Uptime {
			return sorted[i].Uptime > sorted[j].Uptime
		}
		// Exact cost+uptime ties keep the lowest option number, the
		// same deterministic rule the streaming frontier applies.
		return sorted[i].Option < sorted[j].Option
	})
	var front []OptionCard
	bestUptime := -1.0
	for _, c := range sorted {
		if c.Uptime > bestUptime {
			front = append(front, c)
			bestUptime = c.Uptime
		}
	}
	return front
}

// paretoEntry is one surviving frontier candidate: just enough to
// build its option card after the stream finishes. The assignment is
// cloned only when a candidate actually enters the frontier, so the
// pass's memory is O(frontier), not O(k^n).
type paretoEntry struct {
	pos    int
	a      optimize.Assignment
	uptime float64
	tco    cost.TCO
}

// frontier maintains the cost × uptime Pareto frontier online. The
// entries are sorted by ascending HA cost, and the surviving set has
// strictly increasing uptime — the invariant ParetoCards produces by
// sorting after the fact. Exact cost+uptime ties keep the lowest
// presentation position, which makes the fold deterministic under any
// parallel sharding.
type frontier struct {
	entries []paretoEntry
}

// consider offers one candidate to the frontier. The presentation
// position is derived lazily from rk: almost every candidate is
// rejected by the domination checks alone, and only survivors (plus
// exact cost+uptime ties) pay the ranker's O(n) walk — keeping the
// per-candidate cost of the streaming pass at the cursor's O(1).
func (f *frontier) consider(rk *ranker, a optimize.Assignment, uptime float64, tco cost.TCO) {
	ha := tco.HA
	idx := sort.Search(len(f.entries), func(i int) bool { return f.entries[i].tco.HA > ha })
	lo := idx
	pos := -1
	if idx > 0 {
		prev := f.entries[idx-1]
		if prev.uptime > uptime {
			return // dominated: cheaper (or equal) and strictly better uptime
		}
		switch {
		case prev.uptime == uptime:
			if prev.tco.HA < ha {
				return // dominated by a cheaper equal
			}
			pos = rk.position(a)
			if prev.pos < pos {
				return // loses the exact cost+uptime tie
			}
			lo = idx - 1 // wins the tie: prev falls off
		case prev.tco.HA == ha:
			lo = idx - 1 // equal cost, strictly better uptime: prev falls off
		}
	}
	hi := idx
	for hi < len(f.entries) && f.entries[hi].uptime <= uptime {
		hi++ // costlier entries without an uptime edge fall off
	}
	if pos < 0 {
		pos = rk.position(a)
	}
	e := paretoEntry{pos: pos, a: a.Clone(), uptime: uptime, tco: tco}
	f.entries = slices.Delete(f.entries, lo, hi)
	f.entries = slices.Insert(f.entries, lo, e)
}

// pareto runs the frontier search for one normalized request; the
// exported entry point is Pareto (cache.go), which layers
// normalization and the result cache on top. The context cancels the
// underlying enumeration like recommend's.
//
// Unlike Recommend, nothing here needs every card: the frontier is
// folded online during a single streaming pricing pass, so the pass
// holds O(frontier) memory instead of materializing the O(k^n) card
// list and discarding almost all of it — and no solver pass runs at
// all, since the frontier is a property of the full card set, not of
// the TCO optimum. Progress hooks see the single k^n pricing space.
func (e *Engine) pareto(ctx context.Context, req Request) ([]OptionCard, error) {
	c, err := e.compile(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The frontier itself never compares against the incumbent, but an
	// inexpressible as-is plan is still a caller mistake that must
	// surface — exactly as Recommend reports it.
	if _, err := c.assignmentForPlan(req.AsIs); err != nil {
		return nil, err
	}

	rk := newRanker(c.problem)
	var mu sync.Mutex
	var fronts []*frontier
	fork := func() func(*optimize.Cursor) error {
		f := &frontier{}
		mu.Lock()
		fronts = append(fronts, f)
		mu.Unlock()
		return func(cur *optimize.Cursor) error {
			f.consider(rk, cur.Assignment(), cur.Uptime(), cur.TCO())
			return nil
		}
	}
	if err := streamPricing(ctx, c.problem, fork); err != nil {
		return nil, err
	}

	merged := &frontier{}
	for _, f := range fronts {
		for _, en := range f.entries {
			merged.consider(rk, en.a, en.uptime, en.tco)
		}
	}

	front := make([]OptionCard, len(merged.entries))
	for i, en := range merged.entries {
		front[i] = OptionCard{
			Option:        en.pos + 1,
			Choices:       c.choicesFor(en.a),
			HACost:        en.tco.HA,
			Uptime:        en.uptime,
			SlippageHours: req.SLA.SlippageHoursPerMonth(en.uptime),
			Penalty:       en.tco.ExpectedPenalty,
			TCO:           en.tco.Total(),
			MeetsSLA:      en.uptime >= req.SLA.Target(),
		}
	}
	if len(front) == 0 {
		return nil, nil
	}
	return front, nil
}
