package optimize

import (
	"fmt"
	"time"
)

// Budget bounds how much work a single search may spend. Zero values
// mean unlimited. The approximate strategies honor both limits
// natively and report BudgetExhausted when one fires; for exact
// strategies a wall budget becomes a context deadline (the run aborts
// instead of returning a partial certificate) and an evaluation cap is
// refused — exact searches cannot stop early and still be exact.
type Budget struct {
	// Wall is the wall-clock allowance for the whole search.
	Wall time.Duration

	// MaxEvaluations caps full candidate evaluations.
	MaxEvaluations int64
}

// IsZero reports whether the budget imposes no limit.
func (b Budget) IsZero() bool { return b.Wall == 0 && b.MaxEvaluations == 0 }

// Validate rejects negative limits.
func (b Budget) Validate() error {
	if b.Wall < 0 {
		return fmt.Errorf("optimize: negative wall budget %v", b.Wall)
	}
	if b.MaxEvaluations < 0 {
		return fmt.Errorf("optimize: negative evaluation budget %d", b.MaxEvaluations)
	}
	return nil
}

// Defaults for the approximate-lane knobs when a config leaves them
// zero.
const (
	// DefaultBeamWidth is the beam strategy's width when the config
	// does not set one: wide enough that the symmetric benchmark shapes
	// keep every distinct-cost candidate per level, small enough that a
	// level expansion stays in cache.
	DefaultBeamWidth = 64

	// DefaultMaxDiscrepancies is the lds strategy's discrepancy budget
	// when the config does not set one.
	DefaultMaxDiscrepancies = 4

	// DefaultEpsilon is the bounded strategy's suboptimality factor
	// when the config does not set one: the certificate then states the
	// incumbent is within 5% of optimal, matching the anytime lane's
	// quality floor. An exact run is spelled "branch-and-bound", not
	// epsilon zero.
	DefaultEpsilon = 0.05

	// MaxEpsilon caps the bounded strategy's suboptimality factor; a
	// looser certificate than 2x optimal is not worth calling a search.
	MaxEpsilon = 1.0
)

// SolverConfig is the redesigned solver-selection surface: the
// strategy name plus the approximate lane's knobs. The zero value
// means "auto with no limits", which resolves exactly like the old
// flat strategy string, so every pre-existing call site keeps its
// behavior.
type SolverConfig struct {
	// Strategy is one of Strategies(); "" and "auto" let the heuristic
	// pick (which now also weighs the budget and the space size against
	// MaxCandidates, routing to the approximate lane when the exact one
	// cannot answer).
	Strategy string

	// Budget bounds the search's work.
	Budget Budget

	// BeamWidth is the beam strategy's per-level width; zero means
	// DefaultBeamWidth. Setting it with an explicit strategy other
	// than beam is a contradiction Validate rejects; under auto it
	// expresses intent and resolves to beam.
	BeamWidth int

	// MaxDiscrepancies is the lds strategy's discrepancy budget; zero
	// means DefaultMaxDiscrepancies. Contradiction rules mirror
	// BeamWidth's.
	MaxDiscrepancies int

	// Epsilon is the bounded strategy's admissible suboptimality
	// factor: subtrees are clipped unless they could beat the incumbent
	// by more than a (1+Epsilon) factor, and a completed run certifies
	// gap ≤ Epsilon. Zero means DefaultEpsilon. Contradiction rules
	// mirror BeamWidth's.
	Epsilon float64
}

// IsZero reports whether the config is the all-default zero value.
func (c SolverConfig) IsZero() bool {
	return c == SolverConfig{}
}

// Validate rejects unknown strategies, out-of-range knobs, and
// knob/strategy contradictions (an approximate knob alongside an
// explicit strategy that cannot honor it).
func (c SolverConfig) Validate() error {
	if !ValidStrategy(c.Strategy) {
		return fmt.Errorf("optimize: unknown strategy %q (registered: %v)", c.Strategy, Strategies())
	}
	if err := c.Budget.Validate(); err != nil {
		return err
	}
	if c.BeamWidth < 0 {
		return fmt.Errorf("optimize: negative beam width %d", c.BeamWidth)
	}
	if c.MaxDiscrepancies < 0 {
		return fmt.Errorf("optimize: negative discrepancy budget %d", c.MaxDiscrepancies)
	}
	if c.Epsilon < 0 || c.Epsilon > MaxEpsilon {
		return fmt.Errorf("optimize: epsilon %v outside [0, %v]", c.Epsilon, float64(MaxEpsilon))
	}
	if s := c.Strategy; s != "" && s != StrategyAuto {
		if c.BeamWidth != 0 && s != StrategyBeam {
			return fmt.Errorf("optimize: beam width set but strategy is %q, not %q", s, StrategyBeam)
		}
		if c.MaxDiscrepancies != 0 && s != StrategyLDS {
			return fmt.Errorf("optimize: discrepancy budget set but strategy is %q, not %q", s, StrategyLDS)
		}
		if c.Epsilon != 0 && s != StrategyBounded {
			return fmt.Errorf("optimize: epsilon set but strategy is %q, not %q", s, StrategyBounded)
		}
	}
	return nil
}

// budgetTracker enforces a Budget inside the approximate search loops
// on the same amortized cadence as the canceler: exceeded() is asked
// once per prospective evaluation, the evaluation cap is checked every
// time (it is one comparison), and the wall clock is polled every
// cancelCheckEvery calls so time.Now never shows up in profiles.
type budgetTracker struct {
	deadline time.Time
	maxEvals int64
	evals    int64
	polls    int
	done     bool
}

func newBudgetTracker(b Budget) budgetTracker {
	t := budgetTracker{maxEvals: b.MaxEvaluations}
	if b.Wall > 0 {
		t.deadline = time.Now().Add(b.Wall)
	}
	return t
}

// spend accounts one performed evaluation.
func (t *budgetTracker) spend() { t.evals++ }

// exceeded reports whether the budget ran out; once true it stays
// true. Callers check it before each evaluation, so every search
// evaluates at least one candidate (its root incumbent) even under a
// zero-headroom budget.
func (t *budgetTracker) exceeded() bool {
	if t.done {
		return true
	}
	if t.maxEvals > 0 && t.evals >= t.maxEvals {
		t.done = true
		return true
	}
	if !t.deadline.IsZero() {
		t.polls++
		// The first call polls the clock unconditionally so a zero-headroom
		// wall budget is detected after the root evaluation rather than 64
		// candidates later; after that the cadence amortizes the syscall.
		if (t.polls == 1 || t.polls%cancelCheckEvery == 0) && !time.Now().Before(t.deadline) {
			t.done = true
			return true
		}
	}
	return false
}
