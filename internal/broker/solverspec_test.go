package broker

import (
	"context"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
)

// TestSolverSpecAliasesShareCacheAddress is the back-compat contract
// of the redesigned config surface: the deprecated flat "strategy"
// spelling and the nested solver spec naming the same strategy
// normalize to one form and hash to the same cache key — so a caller
// migrating spellings keeps hitting its own cached results — while
// setting an actual solver knob moves the address.
func TestSolverSpecAliasesShareCacheAddress(t *testing.T) {
	e := newTestEngine(t)

	flat := CaseStudy()
	flat.Strategy = optimize.StrategyBeam

	nested := CaseStudy()
	nested.Solver.Strategy = optimize.StrategyBeam

	both := CaseStudy()
	both.Strategy = optimize.StrategyBeam
	both.Solver.Strategy = optimize.StrategyBeam

	flatKey := e.cacheKey("recommend", normalize(flat))
	for name, req := range map[string]Request{"nested": nested, "both": both} {
		if key := e.cacheKey("recommend", normalize(req)); key != flatKey {
			t.Fatalf("%s spelling hashed to %s, flat spelling to %s — aliases must share one address", name, key, flatKey)
		}
	}

	// A zero-knob nested spec must also leave the plain request's
	// address untouched (the key tail is only appended when a knob is
	// set), so every pre-PR cache entry stays reachable.
	plain := e.cacheKey("recommend", normalize(CaseStudy()))
	zeroSpec := CaseStudy()
	zeroSpec.Solver = optimize.SolverConfig{}
	if key := e.cacheKey("recommend", normalize(zeroSpec)); key != plain {
		t.Fatal("zero nested spec moved the cache address of the default request")
	}

	// Knobs are semantic: a budgeted run may return a different
	// (approximate) result, so it must not alias the unbudgeted entry.
	budgeted := CaseStudy()
	budgeted.Solver.Strategy = optimize.StrategyBeam
	budgeted.Solver.Budget.MaxEvaluations = 4
	if key := e.cacheKey("recommend", normalize(budgeted)); key == flatKey {
		t.Fatal("budgeted request aliases the unbudgeted cache entry")
	}
	widened := CaseStudy()
	widened.Solver.Strategy = optimize.StrategyBeam
	widened.Solver.BeamWidth = 2
	if key := e.cacheKey("recommend", normalize(widened)); key == flatKey {
		t.Fatal("beam-width request aliases the default-width cache entry")
	}
}

// TestSolverSpecContradictions: the flat alias and the nested spec
// disagreeing on the strategy is rejected, as are optimize-level
// knob/strategy contradictions surfacing through Request.Validate.
func TestSolverSpecContradictions(t *testing.T) {
	req := CaseStudy()
	req.Strategy = optimize.StrategyPruned
	req.Solver.Strategy = optimize.StrategyBeam
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("contradicting spellings validated: %v", err)
	}

	// The rejection must survive the engine's normalize pass: Recommend
	// canonicalizes before validating, and canonicalization must not
	// silently pick a winner.
	e := newTestEngine(t)
	if _, err := e.Recommend(context.Background(), req); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("engine accepted contradicting spellings: %v", err)
	}

	agree := CaseStudy()
	agree.Strategy = optimize.StrategyBeam
	agree.Solver.Strategy = optimize.StrategyBeam
	if err := agree.Validate(); err != nil {
		t.Fatalf("agreeing spellings rejected: %v", err)
	}

	knob := CaseStudy()
	knob.Solver.Strategy = optimize.StrategyPruned
	knob.Solver.Epsilon = 0.1
	if err := knob.Validate(); err == nil {
		t.Fatal("epsilon on an exact strategy validated")
	}

	neg := CaseStudy()
	neg.Solver.Budget.Wall = -time.Second
	if err := neg.Validate(); err == nil {
		t.Fatal("negative wall budget validated")
	}
}

// TestRecommendApproximateStats runs the full brokerage flow on an
// anytime strategy and checks the certificate surfaces in SearchStats
// — and that exact runs keep the fields zero, so their wire encoding
// is unchanged.
func TestRecommendApproximateStats(t *testing.T) {
	reg := obs.NewRegistry()
	cat := newTestEngine(t).catalog
	e, err := New(cat, CatalogParams{Catalog: cat}, WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	exact, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Search.Approximate || exact.Search.Bound != 0 || exact.Search.Gap != 0 ||
		exact.Search.Optimal || exact.Search.BudgetExhausted {
		t.Fatalf("exact run leaked certificate fields: %+v", exact.Search)
	}

	for _, strat := range []string{optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded} {
		req := CaseStudy()
		req.Solver.Strategy = strat
		rec, err := e.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if rec.Search.Strategy != strat {
			t.Fatalf("%s: echoed strategy %q", strat, rec.Search.Strategy)
		}
		if !rec.Search.Approximate {
			t.Fatalf("%s: run not marked approximate", strat)
		}
		if rec.Search.Gap < 0 {
			t.Fatalf("%s: negative gap %v", strat, rec.Search.Gap)
		}
		// The case-study shape is tiny; every anytime strategy closes it
		// completely, and the certificate must agree with the exact
		// answer the option cards embody.
		best := rec.Best()
		if rec.Search.Optimal && rec.Search.Bound != best.TCO {
			t.Fatalf("%s: optimal with bound %v but best card TCO %v", strat, rec.Search.Bound, best.TCO)
		}
		if rec.BestOption != exact.BestOption {
			t.Fatalf("%s: best option %d, exact %d", strat, rec.BestOption, exact.BestOption)
		}
	}

	// The certificate reaches the metrics registry: a labeled solver_gap
	// gauge per approximate strategy that ran, and no gap series at all
	// for the exact lane.
	snap := reg.Snapshot()
	fam, ok := snap.Family("solver_gap")
	if !ok {
		t.Fatal("no solver_gap family after approximate runs")
	}
	if got := len(fam.Series); got != 3 {
		t.Fatalf("solver_gap has %d series, want 3 (beam, lds, bounded): %+v", got, fam.Series)
	}
	if _, ok := snap.Family("solver_budget_exhausted_total"); !ok {
		t.Fatal("no solver_budget_exhausted_total family after approximate runs")
	}
}

// TestRecommendBudgets: a budget riding on an approximate strategy is
// honored end-to-end (the stats report exhaustion), and an evaluation
// cap on an explicit exact strategy is refused.
func TestRecommendBudgets(t *testing.T) {
	e := newTestEngine(t)

	req := CaseStudy()
	req.Solver.Strategy = optimize.StrategyBeam
	req.Solver.Budget.MaxEvaluations = 1
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Search.BudgetExhausted {
		t.Fatalf("one-evaluation budget not reported exhausted: %+v", rec.Search)
	}
	if rec.Search.Evaluated != 1 {
		t.Fatalf("evaluated %d under a one-evaluation budget", rec.Search.Evaluated)
	}
	// The pricing pass is untouched by the solver budget: every card is
	// still present and priced.
	if len(rec.Cards) != 8 {
		t.Fatalf("budgeted run returned %d cards, want the full 8", len(rec.Cards))
	}

	capped := CaseStudy()
	capped.Strategy = optimize.StrategyExhaustive
	capped.Solver.Budget.MaxEvaluations = 2
	if _, err := e.Recommend(context.Background(), capped); err == nil ||
		!strings.Contains(err.Error(), "cannot honor max_evaluations") {
		t.Fatalf("evaluation cap on exhaustive = %v, want refusal", err)
	}

	// A wall budget on an exhaustive request drops the fused fast path
	// (the budget's deadline semantics belong to the solver pass) but
	// still answers with full statistics.
	walled := CaseStudy()
	walled.Strategy = optimize.StrategyExhaustive
	walled.Solver.Budget.Wall = time.Minute
	rec, err = e.Recommend(context.Background(), walled)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Search.Strategy != optimize.StrategyExhaustive || rec.Search.Evaluated != 8 {
		t.Fatalf("walled exhaustive run: %+v", rec.Search)
	}
}
