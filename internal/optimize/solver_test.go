package optimize

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"uptimebroker/internal/obs"
)

func TestStrategiesRegistered(t *testing.T) {
	want := []string{StrategyAuto, StrategyBranchAndBound, StrategyExhaustive, StrategyParallelPruned, StrategyPruned,
		StrategyBeam, StrategyLDS, StrategyBounded}
	got := Strategies()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("strategy %q missing from Strategies() %v", name, got)
		}
	}
	for _, name := range want {
		if !ValidStrategy(name) {
			t.Fatalf("ValidStrategy(%q) = false", name)
		}
	}
	if !ValidStrategy("") {
		t.Fatal("empty strategy should be valid (caller default)")
	}
	if ValidStrategy("simulated-annealing") {
		t.Fatal("unlisted strategy should be invalid")
	}
}

func TestSolveUnknownStrategy(t *testing.T) {
	_, err := Solve(context.Background(), sampleProblem(), "no-such-solver")
	if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("Solve with unknown strategy = %v, want unknown-strategy error", err)
	}
}

// TestStrategyTable walks the closed strategy list so it cannot drift
// from SolveConfig's switch: every listed name must solve, stamp its
// own name (auto a concrete one), agree with exhaustive when exact, and
// take the budget lane ApproximateStrategy assigns it.
func TestStrategyTable(t *testing.T) {
	names := Strategies()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Strategies() = %v, not sorted", names)
	}
	names[0] = "mutated"
	if got := Strategies(); got[0] == "mutated" {
		t.Fatal("mutating the returned slice changed the next Strategies() call")
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(14))
	problems := make([]*Problem, 8)
	for i := range problems {
		problems[i] = randomProblem(rng)
	}
	const maxEvals = 3
	capped := bigProblem(8)
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			exact := name != StrategyAuto && !ApproximateStrategy(name)
			for trial, p := range problems {
				res, err := Solve(ctx, p, name)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				switch {
				case name == StrategyAuto:
					if !ValidStrategy(res.Strategy) || res.Strategy == "" || res.Strategy == StrategyAuto {
						t.Fatalf("trial %d: auto stamped %q, want a concrete strategy", trial, res.Strategy)
					}
				case res.Strategy != name:
					t.Fatalf("trial %d: stamped %q, want %q", trial, res.Strategy, name)
				}
				if !exact {
					continue
				}
				ref, err := p.ExhaustiveContext(ctx)
				if err != nil {
					t.Fatalf("trial %d: exhaustive: %v", trial, err)
				}
				if !equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
					t.Fatalf("trial %d: Best %v != exhaustive %v", trial, res.Best.Assignment, ref.Best.Assignment)
				}
				if res.NoPenaltyFound != ref.NoPenaltyFound ||
					!equalAssignments(res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
					t.Fatalf("trial %d: BestNoPenalty %v (found %v) != exhaustive %v (found %v)", trial,
						res.BestNoPenalty.Assignment, res.NoPenaltyFound, ref.BestNoPenalty.Assignment, ref.NoPenaltyFound)
				}
			}

			res, err := SolveConfig(ctx, capped, SolverConfig{Strategy: name, Budget: Budget{MaxEvaluations: maxEvals}})
			if exact {
				if err == nil || !strings.Contains(err.Error(), "cannot honor max_evaluations") {
					t.Fatalf("exact strategy under an evaluation cap = %v, want refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("under an evaluation cap: %v", err)
			}
			if res.Evaluated > maxEvals || !res.BudgetExhausted || !res.Approximate {
				t.Fatalf("under a cap of %d: evaluated %d, budget exhausted %v, approximate %v",
					maxEvals, res.Evaluated, res.BudgetExhausted, res.Approximate)
			}
			if res.Strategy == StrategyAuto {
				t.Fatal("auto echoed itself under an evaluation cap")
			}
		})
	}
}

// TestSolverEquivalenceOnRandomInstances is the strategy-wide
// exactness guarantee for the exact lane: every non-approximate
// strategy returns the identical Best/BestNoPenalty on randomized
// instances. The approximate strategies are exempt by contract —
// their guarantee is the certified gap, pinned against these same
// oracles in the anytime tests.
func TestSolverEquivalenceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	var strategies []string
	for _, s := range Strategies() {
		if !ApproximateStrategy(s) {
			strategies = append(strategies, s)
		}
	}
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng)
		ref, err := p.Exhaustive()
		if err != nil {
			t.Fatalf("trial %d: Exhaustive: %v", trial, err)
		}
		for _, strategy := range strategies {
			res, err := Solve(context.Background(), p, strategy)
			if err != nil {
				t.Fatalf("trial %d: Solve(%s): %v", trial, strategy, err)
			}
			if res.Strategy == "" || res.Strategy == StrategyAuto {
				t.Fatalf("trial %d: Solve(%s) reported strategy %q, want a concrete solver", trial, strategy, res.Strategy)
			}
			if res.Best.TCO.Total() != ref.Best.TCO.Total() {
				t.Fatalf("trial %d: %s optimum %v != exhaustive %v (asg %v vs %v)",
					trial, strategy, res.Best.TCO.Total(), ref.Best.TCO.Total(), res.Best.Assignment, ref.Best.Assignment)
			}
			if !equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
				t.Fatalf("trial %d: %s best assignment %v != exhaustive %v",
					trial, strategy, res.Best.Assignment, ref.Best.Assignment)
			}
			if res.NoPenaltyFound != ref.NoPenaltyFound {
				t.Fatalf("trial %d: %s NoPenaltyFound %v != exhaustive %v", trial, strategy, res.NoPenaltyFound, ref.NoPenaltyFound)
			}
			if ref.NoPenaltyFound && !equalAssignments(res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
				t.Fatalf("trial %d: %s BestNoPenalty %v != exhaustive %v",
					trial, strategy, res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)
			}
			if res.Evaluated+res.Skipped != ref.Evaluated {
				t.Fatalf("trial %d: %s accounting %d+%d != space %d",
					trial, strategy, res.Evaluated, res.Skipped, ref.Evaluated)
			}
		}
	}
}

// TestIndexedPrunedMatchesLinear pins the trie index to the linear
// reference scan candidate for candidate: identical Evaluated and
// Skipped, not just the same optimum.
func TestIndexedPrunedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng)
		indexed, err := p.PrunedContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d: indexed: %v", trial, err)
		}
		linear, err := p.prunedLinear(context.Background())
		if err != nil {
			t.Fatalf("trial %d: linear: %v", trial, err)
		}
		if indexed.Evaluated != linear.Evaluated || indexed.Skipped != linear.Skipped ||
			indexed.CoverLookups != linear.CoverLookups || indexed.Clipped != linear.Clipped {
			t.Fatalf("trial %d: indexed accounting (ev=%d sk=%d cl=%d clip=%d) != linear (ev=%d sk=%d cl=%d clip=%d)",
				trial, indexed.Evaluated, indexed.Skipped, indexed.CoverLookups, indexed.Clipped,
				linear.Evaluated, linear.Skipped, linear.CoverLookups, linear.Clipped)
		}
		if !equalAssignments(indexed.Best.Assignment, linear.Best.Assignment) {
			t.Fatalf("trial %d: indexed best %v != linear %v", trial, indexed.Best.Assignment, linear.Best.Assignment)
		}
	}
}

// TestParallelPrunedMatchesSequentialAccounting asserts the sharded
// level search is deterministic down to the effort statistics: same
// Evaluated, same Skipped as the sequential pruned walk.
func TestParallelPrunedMatchesSequentialAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		seq, err := p.Pruned()
		if err != nil {
			t.Fatalf("trial %d: Pruned: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := p.ParallelPrunedContext(context.Background(), workers)
			if err != nil {
				t.Fatalf("trial %d: ParallelPruned(%d): %v", trial, workers, err)
			}
			if par.Evaluated != seq.Evaluated || par.Skipped != seq.Skipped ||
				par.CoverLookups != seq.CoverLookups || par.Clipped != seq.Clipped {
				t.Fatalf("trial %d workers=%d: parallel accounting (ev=%d sk=%d cl=%d clip=%d) != sequential (ev=%d sk=%d cl=%d clip=%d)",
					trial, workers, par.Evaluated, par.Skipped, par.CoverLookups, par.Clipped,
					seq.Evaluated, seq.Skipped, seq.CoverLookups, seq.Clipped)
			}
			if !equalAssignments(par.Best.Assignment, seq.Best.Assignment) {
				t.Fatalf("trial %d workers=%d: parallel best %v != sequential %v",
					trial, workers, par.Best.Assignment, seq.Best.Assignment)
			}
			if par.NoPenaltyFound != seq.NoPenaltyFound {
				t.Fatalf("trial %d workers=%d: NoPenaltyFound diverges", trial, workers)
			}
			if seq.NoPenaltyFound && !equalAssignments(par.BestNoPenalty.Assignment, seq.BestNoPenalty.Assignment) {
				t.Fatalf("trial %d workers=%d: parallel BestNoPenalty %v != sequential %v",
					trial, workers, par.BestNoPenalty.Assignment, seq.BestNoPenalty.Assignment)
			}
		}
	}
}

func TestAutoPicksByShape(t *testing.T) {
	t.Run("attainable small space goes pruned", func(t *testing.T) {
		// The case-study shape: the paper's Section III.C statistics
		// come from the pruned search, so auto must keep picking it.
		res, err := Solve(context.Background(), sampleProblem(), StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyPruned {
			t.Fatalf("auto on the case-study shape picked %q, want pruned", res.Strategy)
		}
	})
	t.Run("unattainable SLA goes branch-and-bound", func(t *testing.T) {
		p := bigProblem(12)
		p.SLA.UptimePercent = 99.9999999 // nothing reaches it
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyBranchAndBound {
			t.Fatalf("auto on unattainable SLA picked %q, want branch-and-bound", res.Strategy)
		}
		if res.NoPenaltyFound {
			t.Fatal("nothing should meet an unattainable SLA")
		}
	})
	t.Run("unattainable small space goes exhaustive", func(t *testing.T) {
		p := sampleProblem()
		p.SLA.UptimePercent = 99.9999999
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyExhaustive {
			t.Fatalf("auto picked %q, want exhaustive", res.Strategy)
		}
	})
	t.Run("attainable large space goes parallel", func(t *testing.T) {
		p := bigProblem(16)
		p.SLA.UptimePercent = 95
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyParallelPruned {
			t.Fatalf("auto picked %q, want parallel-pruned", res.Strategy)
		}
	})
	t.Run("empty strategy means auto", func(t *testing.T) {
		res, err := Solve(context.Background(), sampleProblem(), "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyPruned {
			t.Fatalf("empty strategy resolved to %q, want pruned", res.Strategy)
		}
	})
}

func TestSolveReportsResolvedStrategy(t *testing.T) {
	var reported []string
	ctx := traced(obs.Trace{Strategy: func(s string) {
		reported = append(reported, s)
	}})
	res, err := Solve(ctx, sampleProblem(), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(reported) != 1 || reported[0] != res.Strategy {
		t.Fatalf("strategy hook heard %v, want [%q]", reported, res.Strategy)
	}
}

func TestBranchAndBoundContextCancelled(t *testing.T) {
	p := bigProblem(12)
	// An unattainable bound keeps the incumbent from clipping the walk
	// down to nothing before the cancellation poll fires.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.BranchAndBoundContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BranchAndBoundContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestBranchAndBoundReportsProgress(t *testing.T) {
	p := bigProblem(10)
	var last, space int64
	calls := 0
	ctx := traced(obs.Trace{Progress: func(evaluated, spaceSize int64) {
		calls++
		last, space = evaluated, spaceSize
	}})
	res, err := p.BranchAndBoundContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("branch-and-bound never reported progress")
	}
	if space != int64(p.SpaceSize()) {
		t.Fatalf("reported space %d, want %d", space, p.SpaceSize())
	}
	if last != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("final progress %d, want evaluated+skipped = %d", last, res.Evaluated+res.Skipped)
	}
}

func TestParallelPrunedCancelled(t *testing.T) {
	p := bigProblem(18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ParallelPrunedContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelPrunedContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestParallelPrunedReportsProgress(t *testing.T) {
	p := bigProblem(12)
	var calls int
	var mu = make(chan struct{}, 1)
	var last, space int64
	ctx := traced(obs.Trace{Progress: func(evaluated, spaceSize int64) {
		mu <- struct{}{}
		calls++
		if evaluated > last {
			last = evaluated
		}
		space = spaceSize
		<-mu
	}})
	res, err := p.ParallelPrunedContext(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("parallel search never reported progress")
	}
	if space != int64(p.SpaceSize()) {
		t.Fatalf("reported space %d, want %d", space, p.SpaceSize())
	}
	if last != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("max progress %d, want evaluated+skipped = %d", last, res.Evaluated+res.Skipped)
	}
}
