package optimize

import (
	"context"
	"math"
)

// Pruned implements the Section III.C search: candidates are evaluated
// level by level — first the baseline, then every permutation with one
// clustered component, then two, and so on. Whenever a permutation
// meets the uptime SLA, all of its supersets (same variant choices plus
// additional clustered components) are clipped from later levels: the
// no-HA baseline is each component's cheapest variant, so any superset
// costs at least as much while its penalty can only stay zero or grow
// above the subset's zero, hence its TCO cannot beat the subset's.
//
// The search is exact: it returns the same optimum as Exhaustive (a
// property the tests check on randomized instances) while evaluating
// fewer candidates whenever the SLA is attainable below the top level.
func (p *Problem) Pruned() (Result, error) {
	return p.PrunedContext(context.Background())
}

// PrunedContext is Pruned with cooperative cancellation: the level
// walk aborts with ctx.Err() shortly after ctx is done. The context
// Trace's Progress hook receives periodic reports; clipped
// candidates count toward progress (they are resolved work), so the
// bar approaches the full space even when pruning bites.
//
// Superset checks go through the flat arena met-trie with a
// checkpointed walker (flatindex.go): each lookup pays for the
// consistent portion of the met set below the first digit the level
// walk changed since the previous leaf, instead of a root-down
// pointer chase per leaf.
func (p *Problem) PrunedContext(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, newFlatMetIndex(p))
}

// PrunedPointerTrie is PrunedContext on the previous pointer-linked
// trie index. It is kept as an equivalence oracle and as the
// benchmark reference the trie_flat_speedup ratios measure the flat
// arena against; production paths use PrunedContext.
func (p *Problem) PrunedPointerTrie(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, newMetIndex(p))
}

// PrunedFlatRescan is PrunedContext on the flat arena with the
// checkpointed resume disabled: every lookup re-descends from the
// root. It isolates the arena-layout win from the changed-suffix
// amortization in the benchmark split (solver/pruned-flat vs
// solver/pruned); production paths use PrunedContext.
func (p *Problem) PrunedFlatRescan(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, flatRescanIndex{newFlatMetIndex(p)})
}

// prunedLinear is PrunedContext with the original linear met scan; it
// exists so the equivalence tests and benchmarks can pin the indexed
// searches against the reference implementation.
func (p *Problem) prunedLinear(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, &linearIndex{})
}

// prunedWith runs the level walk with the given superset index on the
// compiled incremental evaluator: leaves that survive the superset
// check re-fold only the digits the level walk changed since the
// previous evaluated leaf.
func (p *Problem) prunedWith(ctx context.Context, ix coverIndex) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	var res Result
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, p)
	cur := ev.NewCursor()
	n := len(p.Components)
	for level := 0; level <= n; level++ {
		if err := p.enumerateLevel(&cc, &pt, level, &res, ix, cur); err != nil {
			return Result{}, err
		}
	}
	pt.done()
	return res, nil
}

// enumerateLevel visits every assignment with exactly `level` clustered
// components, skipping supersets of already-met assignments.
func (p *Problem) enumerateLevel(cc *canceler, pt *progressTicker, level int, res *Result, ix coverIndex, cur *Cursor) error {
	a := make(Assignment, len(p.Components))
	return p.walkLevel(a, 0, level, func(changedFrom int) error {
		return p.prunedLeaf(a, changedFrom, cc, ix.coversFrom, res, pt.advance, ix.insert, cur)
	})
}

// walkLevel enumerates every completion of a from index `start` with
// exactly `remaining` additional clustered components, invoking leaf
// at each complete assignment. It is the single combination walker
// under both the sequential and the parallel pruned searches — any
// change to the walk order changes both identically, which the
// parallel-vs-sequential accounting tests then re-verify.
//
// leaf receives the lowest digit the walk changed since the previous
// leaf (0 on the first leaf, so resumable cover walkers start every
// level/task from the root) — the same changed-suffix information
// Cursor.Sync derives by diffing, handed to the superset index so its
// checkpointed walker can resume mid-trie.
func (p *Problem) walkLevel(a Assignment, start, remaining int, leaf func(changedFrom int) error) error {
	n := len(p.Components)
	lo := 0
	set := func(idx, v int) {
		if a[idx] != v {
			a[idx] = v
			if idx < lo {
				lo = idx
			}
		}
	}
	var walk func(idx, remaining int) error
	walk = func(idx, remaining int) error {
		if remaining > n-idx {
			return nil // not enough components left to reach the level
		}
		if idx == n {
			changedFrom := lo
			lo = n
			return leaf(changedFrom)
		}

		// Choice 1: leave component idx at the baseline.
		set(idx, 0)
		if err := walk(idx+1, remaining); err != nil {
			return err
		}

		// Choice 2: cluster component idx with each non-baseline variant.
		if remaining > 0 {
			for v := 1; v < len(p.Components[idx].Variants); v++ {
				set(idx, v)
				if err := walk(idx+1, remaining-1); err != nil {
					return err
				}
			}
			set(idx, 0)
		}
		return nil
	}
	return walk(start, remaining)
}

// prunedLeaf is the shared leaf protocol of the pruned searches: poll
// cancellation, clip covered supersets, evaluate the rest, and hand
// SLA-meeting assignments to onMet (immediate index insertion for the
// sequential walk, barrier collection for the parallel one). advance
// accounts for one resolved candidate, evaluated or clipped. Exactly
// one cover lookup happens per leaf, and every covering lookup clips
// exactly one candidate — the per-index accounting the three-way
// equivalence tests pin byte-identical.
func (p *Problem) prunedLeaf(a Assignment, changedFrom int, cc *canceler, covers func(Assignment, int) bool, res *Result, advance func(int64), onMet func(Assignment), cur *Cursor) error {
	if err := cc.check(); err != nil {
		return err
	}
	res.CoverLookups++
	if covers(a, changedFrom) {
		res.Skipped++
		res.Clipped++
		advance(1)
		return nil
	}
	cur.Sync(a)
	res.observeCursor(cur, p.SLA)
	advance(1)
	if cur.MeetsSLA() {
		onMet(a)
	}
	return nil
}

// BranchAndBound searches depth-first with an admissible cost bound:
// the TCO of any completion of a partial assignment is at least the
// cost already committed plus each remaining component's cheapest
// variant (expected penalty is never negative). Subtrees whose bound
// cannot beat the incumbent are clipped. Like Pruned, it is exact.
func (p *Problem) BranchAndBound() (Result, error) {
	return p.BranchAndBoundContext(context.Background())
}

// BranchAndBoundContext is BranchAndBound with the same cooperative
// cancellation and progress reporting as the other searches: the walk
// aborts with ctx.Err() shortly after ctx is done, and the context
// Trace's Progress hook sees clipped subtrees counted as resolved work.
//
// The clip rule preserves both orderings, so the result matches the
// other solvers on Best *and* BestNoPenalty. A subtree is clipped only
// when its cost bound cannot beat the incumbent optimum and it cannot
// improve the no-penalty answer either — because no completion can
// meet the SLA (the system uptime is at most the product of cluster
// up-probabilities, so an upper bound over the subtree is the
// committed clusters' product times each remaining component's best
// variant), or because the cost bound already exceeds the incumbent
// no-penalty cost (SLA-meeting candidates pay no penalty, so their TCO
// is exactly their HA cost, which the bound floors).
//
// Leaves that survive the cost bound additionally pass through the
// flat superset index: SLA-meeting leaves are recorded, and a later
// leaf covered by one is clipped without evaluation — sound by the
// same argument as the level search (a covered superset costs at
// least its subset while its penalty stays zero). The lookup is
// gated twice, which makes it nearly free. First, on a cost tie: a
// covering subset m satisfies TCO(m) = cost(m) ≤ committed, and m was
// evaluated, so Best.TCO ≤ committed and (m meets the SLA)
// BestNoPenalty.TCO ≤ committed — while surviving the cost bound
// requires committed ≤ Best.TCO, or committed ≤ BestNoPenalty.TCO on
// the can-improve-no-penalty branch. A reached leaf can therefore
// only be covered when its committed cost exactly ties an incumbent
// total. Second, on level: a cover clusters a strict subset of the
// leaf's components — an equal-level cover could only be the leaf
// itself, and depth-first search visits each assignment once — so the
// leaf's level must exceed the lowest recorded one. SLA-met leaves
// queue in a flat pending arena and fold into the trie only when a
// lookup actually fires: on instances where the admissible bound
// subsumes every cover clip (no exact ties), the index is never built
// at all.
func (p *Problem) BranchAndBoundContext(ctx context.Context) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	cur := ev.NewCursor()

	n := len(p.Components)
	// minTail[i] is the cheapest possible cost of components i..n-1;
	// maxUpTail[i] the largest possible up-probability product.
	minTail := make([]int64, n+1)
	maxUpTail := make([]float64, n+1)
	maxUpTail[n] = 1
	for i := n - 1; i >= 0; i-- {
		cheapest := p.Components[i].Variants[0].MonthlyCost
		bestUp := 0.0
		for _, v := range p.Components[i].Variants {
			if v.MonthlyCost < cheapest {
				cheapest = v.MonthlyCost
			}
			if up := v.Cluster.UpProbability(); up > bestUp {
				bestUp = up
			}
		}
		minTail[i] = minTail[i+1] + int64(cheapest)
		maxUpTail[i] = maxUpTail[i+1] * bestUp
	}

	target := p.SLA.Target()
	var res Result
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, p)
	ix := newFlatMetIndex(p)
	var pending pendingMets // met leaves queued until a lookup needs them
	pendingMin := math.MaxInt
	scratch := make(Assignment, n)
	a := make(Assignment, n)
	var committed int64
	lo := 0
	lvl := 0 // clustered components in a[:idx]

	var walk func(idx int, upCommitted float64) error
	walk = func(idx int, upCommitted float64) error {
		if res.Evaluated > 0 && committed+minTail[idx] > int64(res.Best.TCO.Total()) {
			subtreeCanMeetSLA := upCommitted*maxUpTail[idx] >= target
			canImproveNoPenalty := subtreeCanMeetSLA &&
				!(res.NoPenaltyFound && committed+minTail[idx] > int64(res.BestNoPenalty.TCO.Total()))
			if !canImproveNoPenalty {
				// Clip-dominated tails (an unattainable SLA after a
				// strong incumbent) may never reach another evaluated
				// leaf, so cancellation must be polled here too.
				if err := cc.check(); err != nil {
					return err
				}
				clipped := p.subtreeSize(idx)
				res.Skipped += clipped
				pt.advance(int64(clipped))
				return nil
			}
		}
		if idx == n {
			if err := cc.check(); err != nil {
				return err
			}
			coverPossible := res.Evaluated > 0 &&
				(lvl > ix.minLevel || lvl > pendingMin) &&
				(committed == int64(res.Best.TCO.Total()) ||
					(res.NoPenaltyFound && committed == int64(res.BestNoPenalty.TCO.Total())))
			if coverPossible {
				pending.flush(ix, scratch)
				pendingMin = math.MaxInt
				// lo accumulates the lowest digit changed since the last
				// *performed* lookup — gated-out leaves must keep
				// widening the hint, so it only resets here.
				changedFrom := lo
				lo = n
				res.CoverLookups++
				if ix.coversFrom(a, changedFrom) {
					res.Skipped++
					res.Clipped++
					pt.advance(1)
					return nil
				}
			}
			cur.Sync(a)
			res.observeCursor(cur, p.SLA)
			pt.advance(1)
			if cur.MeetsSLA() {
				pending.add(a)
				if lvl < pendingMin {
					pendingMin = lvl
				}
			}
			return nil
		}
		for v := range p.Components[idx].Variants {
			if a[idx] != v {
				a[idx] = v
				if idx < lo {
					lo = idx
				}
			}
			variant := p.Components[idx].Variants[v]
			delta := int64(variant.MonthlyCost)
			committed += delta
			if v != 0 {
				lvl++
			}
			if err := walk(idx+1, upCommitted*variant.Cluster.UpProbability()); err != nil {
				return err
			}
			if v != 0 {
				lvl--
			}
			committed -= delta
		}
		if a[idx] != 0 {
			a[idx] = 0
			if idx < lo {
				lo = idx
			}
		}
		return nil
	}
	if err := walk(0, 1); err != nil {
		return Result{}, err
	}
	pt.done()
	return res, nil
}

// pendingMets queues SLA-met leaves as packed (component, variant)
// pairs — one word per clustered component — until a gated lookup
// folds them into the trie. Met leaves are dense in components but
// sparse in clusters, so packing keeps the queue's append traffic
// well below re-copying whole assignments; on instances where the
// admissible bound subsumes every cover clip (no exact cost ties) the
// queue is the only cover-clipping cost branch-and-bound pays.
type pendingMets struct {
	packed []int64 // (component << 32) | variant, grouped per met leaf
	ends   []int32 // end offset into packed, one per met leaf
}

func (q *pendingMets) add(a Assignment) {
	for i, v := range a {
		if v != 0 {
			q.packed = append(q.packed, int64(i)<<32|int64(v))
		}
	}
	q.ends = append(q.ends, int32(len(q.packed)))
}

// flush inserts every queued met into ix, unpacking through scratch
// (len of the problem's component count), and empties the queue.
func (q *pendingMets) flush(ix *flatMetIndex, scratch Assignment) {
	start := int32(0)
	for _, end := range q.ends {
		clear(scratch)
		for _, pv := range q.packed[start:end] {
			scratch[pv>>32] = int(pv & 0xffffffff)
		}
		ix.insert(scratch)
		start = end
	}
	q.packed = q.packed[:0]
	q.ends = q.ends[:0]
}

// subtreeSize returns the number of complete assignments below a
// partial assignment fixed through component idx-1.
func (p *Problem) subtreeSize(idx int) int {
	size := 1
	for _, comp := range p.Components[idx:] {
		size *= len(comp.Variants)
	}
	return size
}
