package optimize

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// mergeResults folds shard results with the same ordering rules the
// sequential searches apply, so the merged optimum is independent of
// shard completion order. Evaluated/Skipped/CoverLookups/Clipped
// accounting always sums; Best only considers shards that evaluated
// anything.
func mergeResults(results []Result) Result {
	var merged Result
	seen := false
	for _, r := range results {
		merged.Skipped += r.Skipped
		merged.CoverLookups += r.CoverLookups
		merged.Clipped += r.Clipped
		if r.Evaluated == 0 {
			continue
		}
		if !seen || better(r.Best, merged.Best) {
			merged.Best = r.Best
		}
		seen = true
		if r.NoPenaltyFound {
			if !merged.NoPenaltyFound || betterNoPenalty(r.BestNoPenalty, merged.BestNoPenalty) {
				merged.BestNoPenalty = r.BestNoPenalty
				merged.NoPenaltyFound = true
			}
		}
		merged.Evaluated += r.Evaluated
	}
	return merged
}

// advanceFrom steps dimensions from..n-1 in mixed-radix order, leaving
// the pinned prefix untouched; it returns false after the suffix's
// final candidate. from = 0 is the full step of advance, which the
// from-scratch reference enumerations walk the space with.
func (p *Problem) advanceFrom(a Assignment, from int) bool {
	for i := len(a) - 1; i >= from; i-- {
		a[i]++
		if a[i] < len(p.Components[i].Variants) {
			return true
		}
		a[i] = 0
	}
	return false
}

// ParallelPrunedContext runs the Section III.C level search with each
// level's subtree walk sharded across workers. Within one level the
// superset index is frozen (read-only), which is lossless: an
// assignment at level L can only be covered by a met assignment from
// a strictly lower level — two distinct level-L assignments never
// cover each other, since coverage at equal clustered-count forces
// equality. Newly met assignments are collected per worker and merged
// into the index at the level barrier, so the search visits, prices
// and skips exactly the same candidates as the sequential PrunedContext
// — Evaluated, Skipped, Best and BestNoPenalty are all identical,
// which the equivalence tests assert.
//
// The frozen index is the flat arena trie of flatindex.go: workers
// share the arena read-only (no per-level copy or rebuild) and carry
// private checkpointed walkers, so each worker's lookups amortize its
// own task's changed suffixes without sharing any mutable state.
//
// Work distribution is dynamic (work-stealing over a task channel):
// each level is split into prefix tasks — the first splitDepth
// component choices pinned — and idle workers pull the next prefix, so
// an uneven subtree cannot strand the pool behind one worker.
// workers = 0 means GOMAXPROCS.
func (p *Problem) ParallelPrunedContext(ctx context.Context, workers int) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	if workers < 0 {
		return Result{}, fmt.Errorf("optimize: workers = %d, must be >= 0", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(p.Components) == 1 {
		return p.PrunedContext(ctx)
	}

	n := len(p.Components)
	ix := newFlatMetIndex(p)
	st := newSharedTicker(ctx, p)
	var res Result

	for level := 0; level <= n; level++ {
		levelRes, met, err := p.parallelLevel(ctx, ev, workers, level, ix, st)
		if err != nil {
			return Result{}, err
		}
		res = mergeResults([]Result{res, levelRes})
		for _, m := range met {
			ix.insert(m)
		}
	}
	st.done()
	return res, nil
}

// levelTask is one unit of sharded work: a pinned prefix of the
// assignment plus how many clustered components the suffix must add.
type levelTask struct {
	prefix    Assignment
	remaining int
}

// parallelLevel shards one level's combination walk across workers and
// returns the level's merged result plus the assignments that newly
// met the SLA (for insertion after the barrier).
func (p *Problem) parallelLevel(ctx context.Context, ev *Evaluator, workers, level int, ix *flatMetIndex, st *sharedTicker) (Result, []Assignment, error) {
	tasks := p.levelTasks(level, workers)
	if len(tasks) == 0 {
		return Result{}, nil, nil
	}

	results := make([]Result, len(tasks))
	metLists := make([][]Assignment, len(tasks))
	errs := make([]error, len(tasks))
	feed := make(chan int)
	var wg sync.WaitGroup

	if workers > len(tasks) {
		workers = len(tasks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := canceler{ctx: ctx}
			cur := ev.NewCursor()
			// Each worker's private checkpointed walker over the shared
			// frozen arena; walk state is the only mutable part.
			w := ix.newWalker()
			for ti := range feed {
				results[ti], metLists[ti], errs[ti] = p.walkTask(&cc, tasks[ti], w, st, cur)
			}
		}()
	}

	var cancelErr error
dispatch:
	for ti := range tasks {
		select {
		case feed <- ti:
		case <-ctx.Done():
			cancelErr = ctx.Err()
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	if cancelErr != nil {
		return Result{}, nil, cancelErr
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, nil, err
		}
	}

	var met []Assignment
	for _, list := range metLists {
		met = append(met, list...)
	}
	return mergeResults(results), met, nil
}

// levelTasks enumerates the prefix tasks for one level: every
// assignment of the first splitDepth components consistent with the
// level (clustered count ≤ level, and the suffix can still reach it).
// The split depth grows until there are enough tasks to keep the pool
// busy, so small k (the common k=2 case) still fans out.
func (p *Problem) levelTasks(level, workers int) []levelTask {
	n := len(p.Components)
	want := workers * 4

	splitDepth := 0
	count := 1
	for splitDepth < n && count < want {
		count *= len(p.Components[splitDepth].Variants)
		splitDepth++
	}

	var tasks []levelTask
	prefix := make(Assignment, splitDepth)
	var gen func(idx, used int)
	gen = func(idx, used int) {
		if used > level || level-used > n-idx {
			return // cannot reach the level anymore
		}
		if idx == splitDepth {
			tasks = append(tasks, levelTask{prefix: prefix.Clone(), remaining: level - used})
			return
		}
		prefix[idx] = 0
		gen(idx+1, used)
		for v := 1; v < len(p.Components[idx].Variants); v++ {
			prefix[idx] = v
			gen(idx+1, used+1)
		}
		prefix[idx] = 0
	}
	gen(0, 0)
	return tasks
}

// walkTask enumerates the suffix of one prefix task through the
// shared walkLevel/prunedLeaf machinery against the worker's walker
// over the frozen index. Newly met assignments are collected rather
// than inserted — the caller merges them at the level barrier.
func (p *Problem) walkTask(cc *canceler, task levelTask, w *flatWalker, st *sharedTicker, cur *Cursor) (Result, []Assignment, error) {
	a := make(Assignment, len(p.Components))
	copy(a, task.prefix)

	var (
		res Result
		met []Assignment
	)
	err := p.walkLevel(a, len(task.prefix), task.remaining, func(changedFrom int) error {
		return p.prunedLeaf(a, changedFrom, cc, w.coversFrom, &res, st.advance, func(m Assignment) {
			met = append(met, m.Clone())
		}, cur)
	})
	if err != nil {
		return Result{}, nil, err
	}
	return res, met, nil
}
