package optimize

import (
	"context"
	"testing"

	"uptimebroker/internal/obs"
)

// progressProblem builds an instance big enough to cross the report
// cadence: 2^9 = 512 candidates.
func progressProblem(t *testing.T) *Problem {
	t.Helper()
	p := bigProblem(9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamContextReportsProgress(t *testing.T) {
	p := progressProblem(t)
	var reports []int64
	var lastSpace int64
	ctx := traced(obs.Trace{Progress: func(evaluated, space int64) {
		reports = append(reports, evaluated)
		lastSpace = space
	}})
	if _, err := streamCandidates(ctx, p); err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d progress reports, want several across 256 candidates", len(reports))
	}
	if lastSpace != int64(p.SpaceSize()) {
		t.Fatalf("space = %d, want %d", lastSpace, p.SpaceSize())
	}
	if final := reports[len(reports)-1]; final != int64(p.SpaceSize()) {
		t.Fatalf("final report = %d, want the full space %d", final, p.SpaceSize())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] < reports[i-1] {
			t.Fatalf("progress regressed: %v", reports)
		}
	}
}

func TestPrunedContextProgressCoversSpace(t *testing.T) {
	p := progressProblem(t)
	var final, space int64
	ctx := traced(obs.Trace{Progress: func(evaluated, sp int64) {
		final, space = evaluated, sp
	}})
	res, err := p.PrunedContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Clipped candidates count as progress, so the final report is
	// evaluated + skipped = the whole space.
	if final != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("final progress %d, want evaluated+skipped = %d", final, res.Evaluated+res.Skipped)
	}
	if final != space || space != int64(p.SpaceSize()) {
		t.Fatalf("final/space = %d/%d, want both %d", final, space, p.SpaceSize())
	}
}

func TestNoHookNoReports(t *testing.T) {
	p := progressProblem(t)
	// No WithProgress: must run exactly as before (smoke for the nil
	// fast path).
	if _, err := p.ExhaustiveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// traced returns a background context carrying t.
func traced(t obs.Trace) context.Context { return obs.WithTrace(context.Background(), t) }
