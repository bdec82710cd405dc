package optimize

import (
	"context"
	"fmt"
	"slices"

	"uptimebroker/internal/availability"
)

// Strategy names: the closed set Strategies lists.
const (
	// StrategyExhaustive prices every one of the k^n candidates
	// (Equation 6 verbatim). The only strategy whose Evaluated always
	// equals the space size — pick it when the per-option report
	// matters more than latency.
	StrategyExhaustive = "exhaustive"

	// StrategyPruned is the Section III.C level search with the
	// trie-indexed superset check: SLA-meeting assignments clip all of
	// their supersets from later levels.
	StrategyPruned = "pruned"

	// StrategyBranchAndBound clips subtrees whose admissible cost
	// bound cannot beat the incumbent; effective even when the SLA is
	// unattainable and superset pruning never fires.
	StrategyBranchAndBound = "branch-and-bound"

	// StrategyParallelPruned is the pruned level search with each
	// level's walk sharded across GOMAXPROCS workers (work-stealing,
	// deterministic merge).
	StrategyParallelPruned = "parallel-pruned"

	// StrategyAuto picks a concrete strategy from the space size, the
	// budget and a cheap SLA-attainability probe; it is the default
	// everywhere a strategy is selectable.
	StrategyAuto = "auto"

	// StrategyBeam is the fixed-width level-order beam over the
	// incremental cursor: approximate, budget-aware, certifying its
	// optimality gap against the Pareto-relaxation bound (exactly
	// optimal when the width never dropped a candidate).
	StrategyBeam = "beam"

	// StrategyLDS is limited-discrepancy search around the greedy
	// assignment: approximate, budget-aware, strongest when the greedy
	// ordering is nearly right and a few corrections suffice.
	StrategyLDS = "lds"

	// StrategyBounded is weighted branch-and-bound with an
	// ε-admissible clip over the suffix Pareto-frontier bound: a
	// completed run certifies the incumbent within a (1+ε) factor of
	// optimal, typically much closer.
	StrategyBounded = "bounded"
)

// ApproximateStrategy reports whether the named strategy belongs to
// the anytime lane: its results are certified incumbents (Result's
// Approximate/Bound/Gap fields populated) rather than proven optima.
func ApproximateStrategy(name string) bool {
	switch name {
	case StrategyBeam, StrategyLDS, StrategyBounded:
		return true
	}
	return false
}

// Strategies returns the strategy names, sorted. The set is closed:
// SolveConfig runs each name through one switch, and every strategy
// uniformly supports context cancellation and the context Trace's
// Progress and Strategy hooks. The exact strategies return identical
// Best/BestNoPenalty for the same problem (a property the equivalence
// tests enforce on randomized instances); the approximate lane's
// strategies (see ApproximateStrategy) instead certify how far their
// incumbent can be from optimal through the Result's Bound/Gap fields.
// Each call returns a fresh slice the caller may keep or modify.
func Strategies() []string {
	return []string{
		StrategyAuto,
		StrategyBeam,
		StrategyBounded,
		StrategyBranchAndBound,
		StrategyExhaustive,
		StrategyLDS,
		StrategyParallelPruned,
		StrategyPruned,
	}
}

// ValidStrategy reports whether name is one of Strategies ("" counts
// as valid: it means the caller's default, auto).
func ValidStrategy(name string) bool {
	return name == "" || slices.Contains(Strategies(), name)
}

// ResolveConfig reports the concrete strategy a SolveConfig call with
// this config would run on the given problem: "" and "auto" resolve
// through autoPick (which needs a valid problem shape), anything else
// echoes the named strategy. Layers that can answer a request without
// a separate solver pass — the broker's fused streaming Recommend when
// the resolved strategy is exhaustive — use it to make that call
// before starting the enumeration.
func ResolveConfig(p *Problem, cfg SolverConfig) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	if cfg.Strategy != "" && cfg.Strategy != StrategyAuto {
		return cfg.Strategy, nil
	}
	if err := p.validateShape(); err != nil {
		return "", err
	}
	return autoPick(p, cfg), nil
}

// Solve runs the named strategy ("" or "auto" lets the heuristic
// pick) and stamps the result with the concrete strategy that ran.
// The context Trace's Strategy hook hears the resolved name
// before the enumeration starts, which is how the async job surface
// echoes the choice into live progress.
func Solve(ctx context.Context, p *Problem, strategy string) (Result, error) {
	return SolveConfig(ctx, p, SolverConfig{Strategy: strategy})
}

// SolveConfig is Solve for a full solver config: budgets and the
// approximate-lane knobs reach the approximate strategies directly.
// For exact strategies a wall budget becomes a context deadline; an
// explicit exact strategy cannot honor an evaluation cap and is
// refused (auto under an evaluation cap routes to the approximate lane
// instead whenever the cap could bind).
func SolveConfig(ctx context.Context, p *Problem, cfg SolverConfig) (Result, error) {
	name, err := ResolveConfig(p, cfg)
	if err != nil {
		return Result{}, err
	}
	reportStrategy(ctx, name)
	if !ApproximateStrategy(name) {
		explicit := cfg.Strategy != "" && cfg.Strategy != StrategyAuto
		if cfg.Budget.MaxEvaluations > 0 && explicit {
			return Result{}, fmt.Errorf("optimize: strategy %q is exact and cannot honor max_evaluations; use an approximate strategy or auto", name)
		}
		if cfg.Budget.Wall > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.Budget.Wall)
			defer cancel()
		}
	}
	var res Result
	switch name {
	case StrategyExhaustive:
		res, err = p.ExhaustiveContext(ctx)
	case StrategyPruned:
		res, err = p.PrunedContext(ctx)
	case StrategyBranchAndBound:
		res, err = p.BranchAndBoundContext(ctx)
	case StrategyParallelPruned:
		res, err = p.ParallelPrunedContext(ctx, 0)
	case StrategyBeam:
		res, err = p.beamSearch(ctx, cfg)
	case StrategyLDS:
		res, err = p.ldsSearch(ctx, cfg)
	case StrategyBounded:
		res, err = p.boundedSearch(ctx, cfg)
	default:
		return Result{}, fmt.Errorf("optimize: strategy %q has no solver", name)
	}
	if err != nil {
		return Result{}, err
	}
	res.Strategy = name
	return res, nil
}

// Auto-selection thresholds: unattainable spaces at or below
// autoSmallSpace go exhaustive (the clip bookkeeping costs more than
// it saves on a handful of candidates); attainable spaces at or above
// autoParallelSpace get the sharded level search; under a wall budget,
// spaces above autoApproximateSpace go to the anytime lane (an exact
// run that large may not fit an arbitrary deadline, and the
// approximate lane degrades to a certified incumbent instead of an
// error when it doesn't).
const (
	autoSmallSpace       = 1 << 10
	autoParallelSpace    = 1 << 15
	autoApproximateSpace = 1 << 22
)

// autoPick resolves "auto" to a concrete strategy for a shape-validated
// problem under a config; every rule and threshold of the heuristic
// lives here. An explicit approximate knob expresses intent and picks
// its strategy outright. Otherwise the approximate lane answers
// whenever the exact one cannot — the space exceeds MaxCandidates, an
// evaluation cap could bind, or a wall budget meets a space too large
// to promise an exact finish:
//
//   - SLA attainable → beam (superset pruning keeps its levels shallow)
//   - unattainable   → bounded (only the cost bound can clip)
//
// Within the exact lane:
//
//   - SLA attainable, large space  → parallel-pruned
//   - SLA attainable, otherwise    → pruned (the paper's Section
//     III.C search, whose effort statistics the case study reports)
//   - unattainable, small space    → exhaustive (nothing to prune,
//     nothing worth bounding)
//   - unattainable, otherwise      → branch-and-bound (superset
//     pruning can never fire, but the cost bound still clips)
//
// Attainability is probed once, with a single evaluation of the per-
// component max-uptime assignment: the serial-chain uptime model is
// monotone in each component's reliability, so if even that candidate
// misses the SLA, nothing meets it.
func autoPick(p *Problem, cfg SolverConfig) string {
	switch {
	case cfg.BeamWidth > 0:
		return StrategyBeam
	case cfg.MaxDiscrepancies > 0:
		return StrategyLDS
	case cfg.Epsilon > 0:
		return StrategyBounded
	}
	space := p.SpaceSize()
	approximate := space > MaxCandidates ||
		(cfg.Budget.MaxEvaluations > 0 && cfg.Budget.MaxEvaluations < int64(space)) ||
		(cfg.Budget.Wall > 0 && space > autoApproximateSpace)
	attainable := p.slaAttainable()
	switch {
	case approximate && attainable:
		return StrategyBeam
	case approximate:
		return StrategyBounded
	case !attainable && space <= autoSmallSpace:
		return StrategyExhaustive
	case !attainable:
		return StrategyBranchAndBound
	case space >= autoParallelSpace:
		return StrategyParallelPruned
	default:
		return StrategyPruned
	}
}

// slaAttainable reports whether any candidate meets the SLA, by
// evaluating the assignment that picks each component's most reliable
// variant (lowest single-cluster downtime).
func (p *Problem) slaAttainable() bool {
	a := make(Assignment, len(p.Components))
	for i, comp := range p.Components {
		bestDowntime := 0.0
		for v, variant := range comp.Variants {
			sys := availability.System{Clusters: []availability.Cluster{variant.Cluster}}
			d := sys.Downtime()
			if v == 0 || d < bestDowntime {
				a[i] = v
				bestDowntime = d
			}
		}
	}
	c, err := p.Evaluate(a)
	if err != nil {
		return false
	}
	return c.MeetsSLA(p.SLA)
}
