package optimize

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"uptimebroker/internal/obs"
)

// equalCandidates reports whether two fully priced candidates are
// byte-for-byte identical: same assignment digits, same uptime, same
// TCO decomposition.
func equalCandidates(a, b Candidate) bool {
	if !equalAssignments(a.Assignment, b.Assignment) {
		return false
	}
	return a.Uptime == b.Uptime && a.TCO == b.TCO
}

// streamCandidates collects StreamContext's candidates in visiting
// order.
func streamCandidates(ctx context.Context, p *Problem) ([]Candidate, error) {
	var out []Candidate
	err := p.StreamContext(ctx, func(cur *Cursor) error {
		out = append(out, cur.Candidate())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parallelStreamCandidates collects ParallelStreamContext's
// candidates, each written into its enumeration slot cur.Index(), so
// the result is comparable slot by slot with streamCandidates.
func parallelStreamCandidates(ctx context.Context, p *Problem, workers int) ([]Candidate, error) {
	out := make([]Candidate, p.SpaceSize())
	err := p.ParallelStreamContext(ctx, workers, func() func(*Cursor) error {
		return func(cur *Cursor) error {
			out[cur.Index()] = cur.Candidate()
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scratchCandidates is the from-scratch reference enumeration: every
// candidate re-derived by Problem.Evaluate while advance steps the
// assignment, sharing no code with the compiled evaluator's stream.
func scratchCandidates(t *testing.T, p *Problem) []Candidate {
	t.Helper()
	var out []Candidate
	a := make(Assignment, len(p.Components))
	for {
		c, err := p.Evaluate(a)
		if err != nil {
			t.Fatalf("Evaluate(%v): %v", a, err)
		}
		out = append(out, c)
		if !p.advance(a) {
			return out
		}
	}
}

// TestParallelStreamMatchesSequentialRandom is the full-pricing
// equivalence guarantee: ParallelStreamContext visits the identical
// candidates — same count, same enumeration slots, same values — as
// StreamContext, across randomized problem shapes, worker counts and
// seeds.
func TestParallelStreamMatchesSequentialRandom(t *testing.T) {
	for _, seed := range []int64{1, 20260730, 424242} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			p := randomProblem(rng)
			seq, err := streamCandidates(context.Background(), p)
			if err != nil {
				t.Fatalf("seed %d trial %d: StreamContext: %v", seed, trial, err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := parallelStreamCandidates(context.Background(), p, workers)
				if err != nil {
					t.Fatalf("seed %d trial %d workers %d: ParallelStreamContext: %v", seed, trial, workers, err)
				}
				if len(par) != len(seq) {
					t.Fatalf("seed %d trial %d workers %d: %d candidates, want %d", seed, trial, workers, len(par), len(seq))
				}
				for i := range seq {
					if !equalCandidates(seq[i], par[i]) {
						t.Fatalf("seed %d trial %d workers %d: candidate %d diverges: parallel %+v, sequential %+v",
							seed, trial, workers, i, par[i], seq[i])
					}
				}
			}
		}
	}
}

// TestParallelStreamMatchesSequentialWide covers the regime the
// random shapes miss: many symmetric components (deep prefix blocks,
// large contiguous suffix runs).
func TestParallelStreamMatchesSequentialWide(t *testing.T) {
	for _, n := range []int{10, 13} {
		p := bigProblem(n)
		seq, err := streamCandidates(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := parallelStreamCandidates(context.Background(), p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("n=%d: %d candidates, want %d", n, len(par), len(seq))
		}
		for i := range seq {
			if !equalCandidates(seq[i], par[i]) {
				t.Fatalf("n=%d: candidate %d diverges: parallel %+v, sequential %+v", n, i, par[i], seq[i])
			}
		}
	}
}

func TestParallelStreamRejectsNegativeWorkers(t *testing.T) {
	if _, err := parallelStreamCandidates(context.Background(), bigProblem(4), -1); err == nil {
		t.Fatal("workers = -1 should be rejected")
	}
}

func TestParallelStreamCancelledUpfront(t *testing.T) {
	p := bigProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := parallelStreamCandidates(ctx, p, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParallelStreamContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestParallelStreamCancelMidShard cancels while workers are inside
// their blocks: the pool must drain and surface context.Canceled
// instead of finishing the space.
func TestParallelStreamCancelMidShard(t *testing.T) {
	p := bigProblem(20) // 2^20 candidates: plenty of runway
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := parallelStreamCandidates(ctx, p, 4)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ParallelStreamContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel pricing did not abort after cancel")
	}
}

// TestParallelStreamProgressMonotonic asserts the WithProgress
// contract: reported evaluated counts never decrease across concurrent
// workers and the final report covers the whole space.
func TestParallelStreamProgressMonotonic(t *testing.T) {
	p := bigProblem(13)
	var mu sync.Mutex
	var reports []int64
	ctx := traced(obs.Trace{Progress: func(evaluated, spaceSize int64) {
		mu.Lock()
		defer mu.Unlock()
		reports = append(reports, evaluated)
		if spaceSize != int64(p.SpaceSize()) {
			t.Errorf("spaceSize = %d, want %d", spaceSize, p.SpaceSize())
		}
	}})
	if _, err := parallelStreamCandidates(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("progress hook never fired")
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] < reports[i-1] {
			t.Fatalf("progress went backwards at %d: %d after %d", i, reports[i], reports[i-1])
		}
	}
	if final := reports[len(reports)-1]; final != int64(p.SpaceSize()) {
		t.Fatalf("final progress = %d, want %d", final, p.SpaceSize())
	}
}
