package optimize

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/obs"
)

// randomWideProblem is randomProblem stretched to the widths the
// anytime lane is for: up to 12 components (arity capped so the
// exhaustive oracle stays fast enough to run hundreds of trials).
func randomWideProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(11)
	comps := make([]ComponentChoices, n)
	for i := range comps {
		k := 2
		if n <= 8 {
			k += rng.Intn(2)
		}
		variants := make([]Variant, k)
		down := 0.002 + rng.Float64()*0.03
		variants[0] = Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: 1, Tolerated: 0, NodeDown: down},
		}
		prevCost := cost.Money(0)
		for v := 1; v < k; v++ {
			prevCost += cost.Dollars(float64(1 + rng.Intn(2000)))
			variants[v] = Variant{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: "c", Nodes: 1 + v, Tolerated: v, NodeDown: down,
					FailuresPerYear: rng.Float64() * 8,
					Failover:        time.Duration(rng.Intn(10)) * time.Minute,
				},
				MonthlyCost: prevCost,
			}
		}
		comps[i] = ComponentChoices{Name: "c", Variants: variants}
	}
	return &Problem{
		Components: comps,
		SLA: cost.SLA{
			UptimePercent: 88 + rng.Float64()*11.9,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(float64(1 + rng.Intn(500)))},
		},
	}
}

// anytimeConfigs are the configurations the soundness sweep runs each
// trial through: defaults plus deliberately starved knobs, because the
// certificate must stay sound no matter how little of the space a
// search managed to see.
func anytimeConfigs() []SolverConfig {
	return []SolverConfig{
		{Strategy: StrategyBeam},
		{Strategy: StrategyBeam, BeamWidth: 1},
		{Strategy: StrategyBeam, Budget: Budget{MaxEvaluations: 3}},
		{Strategy: StrategyLDS},
		{Strategy: StrategyLDS, MaxDiscrepancies: 1},
		{Strategy: StrategyLDS, Budget: Budget{MaxEvaluations: 5}},
		{Strategy: StrategyBounded},
		{Strategy: StrategyBounded, Epsilon: 0.3},
		{Strategy: StrategyBounded, Budget: Budget{MaxEvaluations: 2}},
	}
}

// TestAnytimeGapSoundnessVsOracle is the acceptance property the exact
// solvers pin for the approximate lane: on randomized instances up to
// n=12, every approximate strategy's reported bound never exceeds the
// true optimum (from the from-scratch exhaustive oracle), its
// incumbent is a real candidate priced correctly and never better than
// the optimum, the reported gap matches its definition, and a claimed
// Optimal really is the optimum.
func TestAnytimeGapSoundnessVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 150; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		opt := ref.Best.TCO.Total()
		for _, cfg := range anytimeConfigs() {
			res, err := SolveConfig(context.Background(), p, cfg)
			if err != nil {
				t.Fatalf("trial %d: %+v: %v", trial, cfg, err)
			}
			if !res.Approximate {
				t.Fatalf("trial %d: %s result not marked Approximate", trial, cfg.Strategy)
			}
			if res.Strategy != cfg.Strategy {
				t.Fatalf("trial %d: stamped strategy %q, want %q", trial, res.Strategy, cfg.Strategy)
			}
			if res.Evaluated < 1 {
				t.Fatalf("trial %d: %s evaluated nothing", trial, cfg.Strategy)
			}
			if res.Bound > opt {
				t.Fatalf("trial %d: %s bound %v exceeds true optimum %v (cfg %+v)",
					trial, cfg.Strategy, res.Bound, opt, cfg)
			}
			inc := res.Best.TCO.Total()
			if inc < opt {
				t.Fatalf("trial %d: %s incumbent %v beats the optimum %v", trial, cfg.Strategy, inc, opt)
			}
			check, err := p.Evaluate(res.Best.Assignment)
			if err != nil {
				t.Fatalf("trial %d: %s incumbent does not evaluate: %v", trial, cfg.Strategy, err)
			}
			if check.TCO != res.Best.TCO || check.Uptime != res.Best.Uptime {
				t.Fatalf("trial %d: %s incumbent mispriced: %+v vs %+v", trial, cfg.Strategy, res.Best.TCO, check.TCO)
			}
			switch {
			case math.IsInf(res.Gap, 1):
				if res.Bound != 0 || inc == 0 {
					t.Fatalf("trial %d: %s infinite gap with bound %v incumbent %v", trial, cfg.Strategy, res.Bound, inc)
				}
			case res.Bound > 0:
				want := float64(inc-res.Bound) / float64(res.Bound)
				if math.Abs(res.Gap-want) > 1e-12 {
					t.Fatalf("trial %d: %s gap %v, want %v", trial, cfg.Strategy, res.Gap, want)
				}
			default:
				if res.Gap != 0 || inc != 0 {
					t.Fatalf("trial %d: %s zero bound with gap %v incumbent %v", trial, cfg.Strategy, res.Gap, inc)
				}
			}
			if res.Optimal && inc != opt {
				t.Fatalf("trial %d: %s claims optimal at %v but the optimum is %v", trial, cfg.Strategy, inc, opt)
			}
			if res.NoPenaltyFound && !res.BestNoPenalty.MeetsSLA(p.SLA) {
				t.Fatalf("trial %d: %s no-penalty incumbent misses the SLA", trial, cfg.Strategy)
			}
		}
	}
}

// TestBoundedCertificateOnCompletion pins the ε-clip's promise: a
// bounded run that finished under no budget has an incumbent within a
// (1+ε) factor of the true optimum, and its certified gap says so.
func TestBoundedCertificateOnCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.01, 0.05, 0.5} {
			res, err := SolveConfig(context.Background(), p, SolverConfig{Strategy: StrategyBounded, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if res.BudgetExhausted {
				t.Fatalf("trial %d: exhausted without a budget", trial)
			}
			inc := float64(res.Best.TCO.Total())
			opt := float64(ref.Best.TCO.Total())
			if inc > opt*(1+eps)+1 { // +1 micro-dollar for integer rounding
				t.Fatalf("trial %d: eps=%v incumbent %v outside (1+eps) of optimum %v", trial, eps, inc, opt)
			}
			if !math.IsInf(res.Gap, 1) && res.Gap > eps+1e-9 && res.Bound > 0 {
				// The completed-run certificate is max(root, inc/(1+eps)),
				// so the reported gap can never exceed eps (up to integer
				// truncation of the bound).
				want := float64(inc)/(1+eps) - 1
				if float64(res.Bound) < want {
					t.Fatalf("trial %d: eps=%v gap %v > eps with bound %v below inc/(1+eps)",
						trial, eps, res.Gap, res.Bound)
				}
			}
		}
	}
}

// TestAnytimeCompleteRunsAreExact checks the completeness fast-paths:
// a beam wide enough to never drop a member, and a discrepancy budget
// covering every deviation, both certify gap 0 on the exact optimum.
func TestAnytimeCompleteRunsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		ref, err := p.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		space := p.SpaceSize()
		maxWeight := 0
		for _, comp := range p.Components {
			maxWeight += len(comp.Variants) - 1
		}
		for _, cfg := range []SolverConfig{
			{Strategy: StrategyBeam, BeamWidth: space},
			{Strategy: StrategyLDS, MaxDiscrepancies: maxWeight},
		} {
			res, err := SolveConfig(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal || res.Gap != 0 {
				t.Fatalf("trial %d: %s complete run not optimal (gap %v)", trial, cfg.Strategy, res.Gap)
			}
			if res.Best.TCO.Total() != ref.Best.TCO.Total() {
				t.Fatalf("trial %d: %s complete run found %v, optimum %v",
					trial, cfg.Strategy, res.Best.TCO.Total(), ref.Best.TCO.Total())
			}
		}
	}
}

// TestAnytimeBudgets exercises both budget kinds on the n=19 bench
// shape: a one-evaluation cap still yields an incumbent with a sound
// certificate, and a zero-headroom wall budget stops the search
// quickly rather than erroring.
func TestAnytimeBudgets(t *testing.T) {
	p := BenchProblem(19, BenchSLAPercent)
	for _, strat := range []string{StrategyBeam, StrategyLDS, StrategyBounded} {
		res, err := SolveConfig(context.Background(), p, SolverConfig{
			Strategy: strat,
			Budget:   Budget{MaxEvaluations: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.BudgetExhausted {
			t.Fatalf("%s: one-evaluation budget not reported exhausted", strat)
		}
		if res.Evaluated != 1 {
			t.Fatalf("%s: evaluated %d under a one-evaluation budget", strat, res.Evaluated)
		}
		if res.Best.Assignment == nil {
			t.Fatalf("%s: no incumbent under a one-evaluation budget", strat)
		}

		start := time.Now()
		res, err = SolveConfig(context.Background(), p, SolverConfig{
			Strategy: strat,
			Budget:   Budget{Wall: time.Nanosecond},
		})
		if err != nil {
			t.Fatalf("%s wall: %v", strat, err)
		}
		if !res.BudgetExhausted {
			t.Fatalf("%s: nanosecond wall budget not reported exhausted", strat)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: wall-budgeted run took %v", strat, elapsed)
		}
	}
}

// TestAnytimeCancellation: a cancelled context aborts all three
// searches with the context's error.
func TestAnytimeCancellation(t *testing.T) {
	p := BenchProblem(19, BenchSLAPercent)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []string{StrategyBeam, StrategyLDS, StrategyBounded} {
		if _, err := SolveConfig(ctx, p, SolverConfig{Strategy: strat}); err == nil {
			t.Fatalf("%s: cancelled context did not abort", strat)
		}
	}
}

// TestAnytimeProgressAndStrategyHooks: the approximate strategies
// report through the same context hooks as the exact lane.
func TestAnytimeProgressAndStrategyHooks(t *testing.T) {
	p := BenchProblem(12, BenchSLAPercent)
	for _, strat := range []string{StrategyBeam, StrategyLDS, StrategyBounded} {
		var reports int
		var heard string
		ctx := traced(obs.Trace{
			Progress: func(evaluated, space int64) {
				reports++
				if space != int64(p.SpaceSize()) {
					t.Fatalf("%s: progress space %d, want %d", strat, space, p.SpaceSize())
				}
			},
			Strategy: func(s string) { heard = s },
		})
		if _, err := SolveConfig(ctx, p, SolverConfig{Strategy: strat}); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if reports == 0 {
			t.Fatalf("%s: no progress reports", strat)
		}
		if heard != strat {
			t.Fatalf("%s: strategy hook heard %q", strat, heard)
		}
	}
}

// TestSolverConfigValidation covers the redesigned config surface:
// range checks, knob/strategy contradictions, and the exact lane's
// refusal of an evaluation cap.
func TestSolverConfigValidation(t *testing.T) {
	bad := []struct {
		cfg  SolverConfig
		want string
	}{
		{SolverConfig{Strategy: "no-such"}, "unknown strategy"},
		{SolverConfig{Budget: Budget{Wall: -time.Second}}, "negative wall"},
		{SolverConfig{Budget: Budget{MaxEvaluations: -1}}, "negative evaluation"},
		{SolverConfig{Strategy: StrategyBeam, BeamWidth: -1}, "negative beam width"},
		{SolverConfig{Strategy: StrategyLDS, MaxDiscrepancies: -2}, "negative discrepancy"},
		{SolverConfig{Strategy: StrategyBounded, Epsilon: -0.1}, "epsilon"},
		{SolverConfig{Strategy: StrategyBounded, Epsilon: 1.5}, "epsilon"},
		{SolverConfig{Strategy: StrategyLDS, BeamWidth: 8}, "beam width set"},
		{SolverConfig{Strategy: StrategyPruned, Epsilon: 0.1}, "epsilon set"},
		{SolverConfig{Strategy: StrategyBeam, MaxDiscrepancies: 2}, "discrepancy budget set"},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate(%+v) = %v, want %q", tc.cfg, err, tc.want)
		}
	}
	good := []SolverConfig{
		{},
		{Strategy: StrategyAuto, BeamWidth: 8},
		{BeamWidth: 8},
		{Strategy: StrategyBeam, BeamWidth: 8, Budget: Budget{Wall: time.Second, MaxEvaluations: 10}},
		{Strategy: StrategyBounded, Epsilon: 0.05},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}

	p := sampleProblem()
	if _, err := SolveConfig(context.Background(), p, SolverConfig{
		Strategy: StrategyPruned,
		Budget:   Budget{MaxEvaluations: 10},
	}); err == nil || !strings.Contains(err.Error(), "cannot honor max_evaluations") {
		t.Fatalf("exact strategy with evaluation cap = %v, want refusal", err)
	}
}

// TestResolveConfigRouting pins the budget- and width-aware auto
// heuristic: spaces past MaxCandidates route to the approximate lane
// (beam when the SLA is attainable, bounded when it is not), a binding
// evaluation cap does the same, explicit knobs express intent, and
// small unconstrained spaces keep the exact-lane rules.
func TestResolveConfigRouting(t *testing.T) {
	wide := BenchProblem(BenchWideN, BenchSLAWidePercent)
	if wide.SpaceSize() <= MaxCandidates {
		t.Fatalf("bench wide shape fits the exact lane (space %d)", wide.SpaceSize())
	}
	wideUnattainable := BenchProblem(BenchWideN, 99.99)
	small := BenchProblem(10, BenchSLAPercent)

	cases := []struct {
		p    *Problem
		cfg  SolverConfig
		want string
	}{
		{wide, SolverConfig{}, StrategyBeam},
		{wideUnattainable, SolverConfig{}, StrategyBounded},
		{small, SolverConfig{Budget: Budget{MaxEvaluations: 16}}, StrategyBeam},
		{small, SolverConfig{BeamWidth: 4}, StrategyBeam},
		{small, SolverConfig{MaxDiscrepancies: 2}, StrategyLDS},
		{small, SolverConfig{Epsilon: 0.1}, StrategyBounded},
		{small, SolverConfig{}, StrategyPruned},
		{small, SolverConfig{Strategy: StrategyExhaustive}, StrategyExhaustive},
		{small, SolverConfig{Budget: Budget{MaxEvaluations: 1 << 20}}, StrategyPruned},
	}
	for _, tc := range cases {
		got, err := ResolveConfig(tc.p, tc.cfg)
		if err != nil {
			t.Fatalf("ResolveConfig(%+v): %v", tc.cfg, err)
		}
		if got != tc.want {
			t.Fatalf("ResolveConfig(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}

}

// TestAnytimeN30WithinBudget is the acceptance gate: all three
// approximate strategies solve the SLA-dense n=30 shape within a
// 500ms budget with a certified gap at or below 5%.
func TestAnytimeN30WithinBudget(t *testing.T) {
	p := BenchProblem(BenchWideN, BenchSLAWidePercent)
	for _, strat := range []string{StrategyBeam, StrategyLDS, StrategyBounded} {
		res, err := SolveConfig(context.Background(), p, SolverConfig{
			Strategy: strat,
			Budget:   Budget{Wall: 500 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Gap > 0.05 {
			t.Fatalf("%s: certified gap %.4f > 0.05 (bound %v, incumbent %v, exhausted %v)",
				strat, res.Gap, res.Bound, res.Best.TCO.Total(), res.BudgetExhausted)
		}
	}
}

// TestRootLowerBoundSoundness pins the Pareto-relaxation bound alone
// against the oracle, independent of any search.
func TestRootLowerBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if bound := p.rootLowerBound(p.tailFrontiers()); bound > ref.Best.TCO.Total() {
			t.Fatalf("trial %d: root bound %v exceeds optimum %v", trial, bound, ref.Best.TCO.Total())
		}
	}
}
