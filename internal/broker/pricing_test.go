package broker

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
)

// TestParallelPricingMatchesSequential pins byte-identical results on
// both sides of the auto pricing decision: the same request on a
// cache-less engine under GOMAXPROCS(1), where auto prices on one
// core, and GOMAXPROCS(4), where it shards, yields the same Recommend
// and Pareto JSON — same cards in the same presentation order, same
// option numbers, same summary and search statistics.
func TestParallelPricingMatchesSequential(t *testing.T) {
	e := newTestEngine(t)
	req := wideRequest(12) // 2^12 candidates: k = 2 over 12 components
	if autoParallelPricing(1, 1<<12) || !autoParallelPricing(4, 1<<12) {
		t.Fatal("wideRequest(12) no longer straddles the auto pricing decision")
	}

	results := func(procs int) (rec, front []byte) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := e.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("GOMAXPROCS(%d) Recommend: %v", procs, err)
		}
		f, err := e.Pareto(context.Background(), req)
		if err != nil {
			t.Fatalf("GOMAXPROCS(%d) Pareto: %v", procs, err)
		}
		if rec, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		if front, err = json.Marshal(f); err != nil {
			t.Fatal(err)
		}
		return rec, front
	}
	seqRec, seqFront := results(1)
	parRec, parFront := results(4)
	if !bytes.Equal(seqRec, parRec) {
		t.Fatalf("Recommend JSON diverges: %d bytes sequential, %d parallel", len(seqRec), len(parRec))
	}
	if !bytes.Equal(seqFront, parFront) {
		t.Fatalf("Pareto diverges:\n  sequential %s\n  parallel   %s", seqFront, parFront)
	}
}

// TestAutoParallelPricing pins the auto decision itself: sharding
// pays only with at least two schedulable cores AND a space big
// enough to amortize the worker scaffolding. On the committed 1-core
// benchmark baseline parallel pricing measured 0.90–0.98x sequential,
// which is why a single core must always resolve sequential.
func TestAutoParallelPricing(t *testing.T) {
	cases := []struct {
		procs, space int
		want         bool
	}{
		{1, 1 << 20, false}, // single core: never worth it
		{1, 1, false},
		{2, autoParallelPricingSpace, true},
		{2, autoParallelPricingSpace - 1, false}, // too few candidates
		{8, 1 << 19, true},
		{8, 64, false},
	}
	for _, c := range cases {
		if got := autoParallelPricing(c.procs, c.space); got != c.want {
			t.Errorf("autoParallelPricing(procs=%d, space=%d) = %v, want %v", c.procs, c.space, got, c.want)
		}
	}
}

// TestSavingsFractionIdentity pins the edge the division used to
// leave implicit: when the incumbent already is the optimum, the
// savings are exactly zero.
func TestSavingsFractionIdentity(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.AsIs = Plan{"storage": catalog.TechRAID1} // the case study's optimum (option #3)
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if rec.AsIsOption != rec.BestOption {
		t.Fatalf("as-is option %d != best option %d; the fixture no longer makes the incumbent optimal",
			rec.AsIsOption, rec.BestOption)
	}
	if rec.SavingsFraction != 0 {
		t.Fatalf("savings against an already-optimal incumbent = %v, want exactly 0", rec.SavingsFraction)
	}
}

// TestSavingsFractionZeroTCOAsIs pins the division-by-zero edge: a
// penalty-free SLA makes the no-HA incumbent's TCO zero, and the
// savings must come out zero, not Inf or NaN.
func TestSavingsFractionZeroTCOAsIs(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.SLA = cost.SLA{UptimePercent: 98, Penalty: cost.Penalty{}}
	req.AsIs = Plan{} // no HA anywhere: zero HA cost, zero penalty, zero TCO
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if rec.AsIsOption != 1 {
		t.Fatalf("as-is option = %d, want 1 (no HA)", rec.AsIsOption)
	}
	if card := rec.Cards[0]; card.TCO != 0 {
		t.Fatalf("no-HA card TCO = %v, want 0 with a penalty-free SLA", card.TCO)
	}
	if rec.SavingsFraction != 0 {
		t.Fatalf("savings against a zero-TCO incumbent = %v, want exactly 0", rec.SavingsFraction)
	}
}

// TestRecommendCombinedProgress asserts the de-double-counted bar:
// the pricing and solver passes report into one combined space of
// 2·k^n, monotonically, finishing exactly at the top.
func TestRecommendCombinedProgress(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.Strategy = optimize.StrategyExhaustive

	var mu sync.Mutex
	var evals []int64
	var spaces []int64
	ctx := traced(obs.Trace{Progress: func(evaluated, spaceSize int64) {
		mu.Lock()
		defer mu.Unlock()
		evals = append(evals, evaluated)
		spaces = append(spaces, spaceSize)
	}})
	rec, err := e.Recommend(ctx, req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if len(evals) == 0 {
		t.Fatal("progress hook never fired")
	}
	combined := int64(2 * rec.Search.SpaceSize)
	for i, s := range spaces {
		if s != combined {
			t.Fatalf("report %d: space = %d, want combined %d", i, s, combined)
		}
	}
	for i := 1; i < len(evals); i++ {
		if evals[i] < evals[i-1] {
			t.Fatalf("progress went backwards at %d: %d after %d", i, evals[i], evals[i-1])
		}
	}
	if final := evals[len(evals)-1]; final != combined {
		t.Fatalf("final progress = %d, want %d", final, combined)
	}
}

// TestProgressRescopingKeepsOtherHooks: splitProgress then
// doubleProgress re-scope only Progress; the caller's Strategy and
// Cache hooks reach the innermost context untouched, and the nested
// Progress maps onto the caller's combined 2·space bar.
func TestProgressRescopingKeepsOtherHooks(t *testing.T) {
	const space = 8
	var progress [][2]int64
	var strategy, cache string
	ctx := traced(obs.Trace{
		Progress: func(done, total int64) { progress = append(progress, [2]int64{done, total}) },
		Strategy: func(s string) { strategy = s },
		Cache:    func(s string) { cache = s },
	})
	pricing, solver := splitProgress(ctx, space)
	inner := obs.TraceFrom(doubleProgress(pricing, space))
	inner.Strategy("pruned")
	inner.Cache("miss")
	inner.Progress(3, space)
	obs.TraceFrom(doubleProgress(solver, space)).Progress(2, space)

	if strategy != "pruned" || cache != "miss" {
		t.Fatalf("inherited hooks heard strategy %q, cache %q; want pruned, miss", strategy, cache)
	}
	want := [][2]int64{{6, 2 * space}, {space + 4, 2 * space}}
	if len(progress) != len(want) || progress[0] != want[0] || progress[1] != want[1] {
		t.Fatalf("progress reports %v, want %v", progress, want)
	}
}
