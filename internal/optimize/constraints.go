package optimize

import (
	"fmt"

	"uptimebroker/internal/cost"
)

// Constraints narrow the admissible candidate set before TCO ranking.
// Zero values disable each constraint, so the zero Constraints admits
// everything.
type Constraints struct {
	// MaxHACost caps C_HA: a customer's hard redundancy budget.
	// Zero means unlimited.
	MaxHACost cost.Money

	// MinUptime floors the expected uptime fraction regardless of
	// penalty economics (e.g. a reputational requirement stricter than
	// the contractual SLA). Zero means no floor.
	MinUptime float64

	// Require pins specific components to HA: Require[i] = true forces
	// component i to a non-baseline variant (compliance rules such as
	// "production databases must be mirrored"). Nil means no pins.
	Require []bool
}

// Validate reports whether the constraints are well-formed for a
// problem with n components.
func (c Constraints) Validate(n int) error {
	if c.MaxHACost < 0 {
		return fmt.Errorf("optimize: MaxHACost = %d, must be >= 0", c.MaxHACost)
	}
	if c.MinUptime < 0 || c.MinUptime > 1 {
		return fmt.Errorf("optimize: MinUptime = %v, must be in [0, 1]", c.MinUptime)
	}
	if c.Require != nil && len(c.Require) != n {
		return fmt.Errorf("optimize: Require has %d entries for %d components", len(c.Require), n)
	}
	return nil
}

// admits reports whether a candidate satisfies the constraints.
func (c Constraints) admits(cand Candidate) bool {
	if c.MaxHACost > 0 && cand.TCO.HA > c.MaxHACost {
		return false
	}
	if c.MinUptime > 0 && cand.Uptime < c.MinUptime {
		return false
	}
	for i, required := range c.Require {
		if required && cand.Assignment[i] == 0 {
			return false
		}
	}
	return true
}

// ErrInfeasible is wrapped by ExhaustiveConstrained when no candidate
// satisfies the constraints.
var ErrInfeasible = fmt.Errorf("optimize: constraints admit no candidate")

// ExhaustiveConstrained evaluates every candidate and returns the
// minimum-TCO one among those the constraints admit.
func (p *Problem) ExhaustiveConstrained(c Constraints) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := c.Validate(len(p.Components)); err != nil {
		return Result{}, err
	}
	var (
		res   Result
		found bool
	)
	a := make(Assignment, len(p.Components))
	for {
		cand, err := p.Evaluate(a)
		if err != nil {
			return Result{}, err
		}
		if c.admits(cand) {
			res.observe(cand, p.SLA)
			found = true
		} else {
			res.Skipped++
		}
		if !p.advance(a) {
			break
		}
	}
	if !found {
		return Result{}, ErrInfeasible
	}
	return res, nil
}
