package optimize

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// StreamContext enumerates every one of the k^n candidates in
// mixed-radix order (assignment [0 0 ... 0] first, the last component
// as the fastest digit), presenting each to visit through a Cursor.
// It is the card-pricing pass behind the per-option report of
// Figures 3–9: consumers fold candidates online (option cards,
// incumbents, Pareto frontiers) in O(1) memory. The cursor is reused
// between calls: visit must read what it needs (Uptime, TCO,
// Assignment, Index) before returning and must not retain the cursor
// or its assignment view; Candidate() clones for retention.
//
// The enumeration runs on the compiled incremental evaluator: zero
// heap allocations per step in steady state, with values
// bit-identical to Problem.Evaluate. The enumeration aborts with
// ctx.Err() shortly after ctx is done, the context Trace's Progress
// hook receives periodic evaluated/space reports, and an error from
// visit aborts the stream and is returned verbatim.
func (p *Problem) StreamContext(ctx context.Context, visit func(*Cursor) error) error {
	ev, err := NewEvaluator(p)
	if err != nil {
		return err
	}
	return ev.stream(ctx, visit)
}

// stream is the sequential streaming core over a compiled evaluator.
func (e *Evaluator) stream(ctx context.Context, visit func(*Cursor) error) error {
	cur := e.NewCursor()
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, e.p)
	for {
		if err := cc.check(); err != nil {
			return err
		}
		if err := visit(cur); err != nil {
			return err
		}
		pt.advance(1)
		if !cur.Advance() {
			pt.done()
			return nil
		}
	}
}

// ParallelStreamContext is StreamContext sharded across workers by
// prefix-block work stealing: the first splitDepth digits are pinned
// per block and idle workers steal the next block off a shared feed. fork is invoked once per worker
// (concurrently) to produce that worker's visitor; per-worker visitor
// state plus a deterministic caller-side merge is the pattern — each
// candidate is visited exactly once, with Cursor.Index identifying
// its place in the global enumeration order. workers = 0 means
// GOMAXPROCS; workers <= 1 degrades to the sequential stream over
// fork()'s single visitor.
func (p *Problem) ParallelStreamContext(ctx context.Context, workers int, fork func() func(*Cursor) error) error {
	ev, err := NewEvaluator(p)
	if err != nil {
		return err
	}
	return ev.parallelStream(ctx, workers, fork)
}

// parallelStream is the sharded streaming core over a compiled
// evaluator.
func (e *Evaluator) parallelStream(ctx context.Context, workers int, fork func() func(*Cursor) error) error {
	p := e.p
	if workers < 0 {
		return fmt.Errorf("optimize: workers = %d, must be >= 0", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(p.Components) == 1 {
		return e.stream(ctx, fork())
	}

	// Grow the pinned prefix until there are enough blocks for the
	// pool to steal from; never past n-1 so every block keeps at
	// least one free digit.
	n := len(p.Components)
	want := workers * 4
	splitDepth, blocks := 0, 1
	for splitDepth < n-1 && blocks < want {
		blocks *= len(p.Components[splitDepth].Variants)
		splitDepth++
	}
	blockSize := p.SpaceSize() / blocks

	errs := make([]error, blocks)
	feed := make(chan int)
	st := newSharedTicker(ctx, p)
	if workers > blocks {
		workers = blocks
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit := fork()
			cur := e.NewCursor()
			cc := canceler{ctx: ctx}
			for bi := range feed {
				errs[bi] = streamBlock(cur, bi, splitDepth, blockSize, visit, &cc, st)
			}
		}()
	}

	var cancelErr error
dispatch:
	for bi := 0; bi < blocks; bi++ {
		select {
		case feed <- bi:
		case <-ctx.Done():
			cancelErr = ctx.Err()
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	if cancelErr != nil {
		return cancelErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.done()
	return nil
}

// streamBlock visits one prefix block's candidates. block is the
// mixed-radix value of the pinned prefix digits.
func streamBlock(cur *Cursor, block, splitDepth, blockSize int, visit func(*Cursor) error, cc *canceler, st *sharedTicker) error {
	cur.seekBlock(block, splitDepth)
	for j := 0; j < blockSize; j++ {
		if err := cc.check(); err != nil {
			return err
		}
		if err := visit(cur); err != nil {
			return err
		}
		st.advance(1)
		if j+1 < blockSize {
			cur.AdvanceFrom(splitDepth)
		}
	}
	return nil
}

// seekBlock positions the cursor on the first candidate of a prefix
// block: digits [0, splitDepth) decode the block number, the suffix
// is all-baseline.
func (c *Cursor) seekBlock(block, splitDepth int) {
	rem := block
	for i := splitDepth - 1; i >= 0; i-- {
		k := c.e.arity[i]
		c.a[i] = rem % k
		rem /= k
	}
	for i := splitDepth; i < len(c.a); i++ {
		c.a[i] = 0
	}
	c.idx = 0
	if splitDepth > 0 {
		c.idx = int64(block) * c.e.place[splitDepth-1]
	}
	c.refold(0)
}
