package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workload is one client traffic mix. Every workload is a closed
// loop: each client sends its next request when the previous one has
// been answered and checked.
type workload struct {
	// clients is the number of closed-loop clients, each on a
	// connection of its own.
	clients int
	// freshKind is the route of a fresh-key workload ("" for a keyed one).
	freshKind   string
	freshShapes []chainShape
	// keyed builds a keyed workload's plan from the seed.
	keyed func(seed int64) keyedPlan
	// observe posts a telemetry observation every observeEvery.
	observe bool
	// rssAfter, when not 0, reads brokerd's peak RSS once that many
	// requests are answered instead of at the end of the run: a
	// workload whose every answer stays in the result cache grows with
	// the requests a run completes, which the host's speed sets.
	rssAfter int64
}

var workloads = map[string]workload{
	// What a client pays for a new architecture: every request is a new
	// content address, so card building, DTO conversion and encoding
	// of 1k-20k cards dominate.
	"recommend-cold": {clients: 1, freshKind: kindRecommend, freshShapes: coldShapes, rssAfter: 100},
	// Repeat traffic served by the result cache; every hit still
	// re-converts and re-encodes its cards, and the epoch bumps add
	// cache writes beside the reads.
	"recommend-hot": {clients: 1, keyed: newHotPlan, observe: true},
	// The streaming pricing pass over 131k-524k candidates, tiny bodies.
	"frontier-wide": {clients: 1, freshKind: kindPareto, freshShapes: frontierShapes},
}

// A run starts brokerd and primes it at least minSetups times, and
// more while the set-ups have taken less than setupBudget in all, up to
// maxSetups; the reported set-up time is their median and the last
// set-up is measured.
const (
	minSetups   = 9
	maxSetups   = 101
	setupBudget = 1500 * time.Millisecond
)

// session is a primed brokerd and the load generator bound to it.
type session struct {
	b    *brokerd
	g    *loadgen
	plan keyedPlan
}

func (s *session) stop() {
	s.g.close()
	s.b.stop()
}

// start launches brokerd with production defaults and primes it:
// recommend-hot answers its 64 keys once. The returned time is start
// to primed.
func (w workload) start(ctx context.Context, cfg config) (*session, time.Duration, error) {
	s := &session{}
	if w.keyed != nil {
		s.plan = w.keyed(cfg.seed)
	}
	begin := time.Now()
	b, err := startBrokerd(ctx, cfg.bin, filepath.Join(cfg.dir, "brokerd.log"))
	if err != nil {
		return nil, 0, err
	}
	s.b = b
	s.g, err = newLoadgen(b.url, w.clients)
	if err != nil {
		b.stop()
		return nil, 0, err
	}
	if len(s.plan.bodies) > 0 {
		s.g.hot = newHotChecker(len(s.plan.bodies))
	}
	for k := range s.plan.bodies {
		if r := s.g.do(ctx, s.plan.prime(k)); r.err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("prime: %w", r.err)
		}
	}
	return s, time.Since(begin), nil
}

// streams returns the clients' operation streams.
func (w workload) streams(cfg config, s *session) []func() op {
	if w.freshKind != "" {
		return []func() op{newFreshStream(cfg.seed, w.freshKind, w.freshShapes).next}
	}
	out := make([]func() op, w.clients)
	for c := range out {
		out[c] = s.plan.clientStream(c)
	}
	return out
}

// load runs the workload's traffic against a primed session for run.
func (w workload) load(ctx context.Context, cfg config, s *session, run time.Duration) []result {
	var observe func() op
	if w.observe {
		observe = observationStream(cfg.seed)
	}
	return s.g.closedLoop(ctx, time.Now().Add(run), w.streams(cfg, s), observe)
}

// measuredRun is the untraced run: end-to-end metrics only.
func measuredRun(ctx context.Context, cfg config, w workload) (report, hostInfo, error) {
	var setups []float64
	var s *session
	var spent time.Duration
	for {
		sess, took, err := w.start(ctx, cfg)
		if err != nil {
			return report{}, hostInfo{}, err
		}
		setups = append(setups, took.Seconds())
		spent += took
		if n := len(setups); n >= maxSetups || n >= minSetups && spent >= setupBudget {
			s = sess
			break
		}
		sess.stop()
	}
	var rss float64
	var rssErr error
	if w.rssAfter > 0 {
		s.g.answered = func(n int64) {
			if n == w.rssAfter {
				rss, rssErr = s.b.peakRSSMB()
			}
		}
	}
	results := w.load(ctx, cfg, s, cfg.run)
	if rss == 0 && rssErr == nil {
		if w.rssAfter > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d requests answered, fewer than the %d before peak RSS is read; reading it at the end\n", len(results), w.rssAfter)
		}
		rss, rssErr = s.b.peakRSSMB()
	}
	host := newHostInfo(cfg, s.b.args)
	host.BrokerdGo = brokerdGoVersion(ctx, s.g)
	s.stop()
	if rssErr != nil {
		return report{}, host, rssErr
	}
	rep := report{Metrics: map[string]metric{}}
	// Set-up time drifts with the host's speed like the latencies, and
	// is scaled the same way.
	scale := s.g.cal.scale()
	rep.set("setup_s", median(setups)*scale, "s")
	rep.set("peak_rss_mb", rss, "MB")
	endToEnd(&rep, results, scale)
	oracleErr := verifyOracle(ctx, s.g.samples, observations(results))
	finish(&rep, results, oracleErr)
	return rep, host, nil
}

// finish fills the counts and the verdict.
func finish(rep *report, results []result, oracleErr error) {
	rep.Attempted = len(results)
	for _, r := range results {
		if r.err != nil {
			rep.Failed++
		}
	}
	logErrors(results)
	if oracleErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", oracleErr)
	}
	rep.Correct = rep.Failed == 0 && oracleErr == nil && rep.Attempted > 0
}

// requestClass groups the requests whose fastest response is taken:
// one route, candidate space and cache outcome.
type requestClass struct {
	kind  string
	space int
	miss  bool
}

// endToEnd computes the end-to-end metrics of an untraced run; scale
// takes its times to the reference host (calibration.scale).
func endToEnd(rep *report, results []result, scale float64) {
	reqs := requests(results)
	latency, spaceRate, ok := fastest(reqs)
	fmt.Fprintf(os.Stderr, "perfbench: fastest-response latency %.4f ms, scaled by %.4f\n", latency, scale)
	rep.set("norm_latency_min_ms", latency*scale, "ms")
	rep.set("norm_space_per_s", ratio(spaceRate, scale), "1/s")
	rep.set("success_ratio", ratio(float64(ok), float64(len(reqs))), "ratio")
}

// fastest summarizes the answered requests by each class's fastest
// response. Other tenants of a shared host stretch some responses by
// tens of percent, so a run's percentiles move with the host's load;
// the fastest response of a class barely does. latency is the classes'
// fastest responses in ms, averaged with the classes weighted by their
// share of the answered requests, and spaceRate the candidates
// answered per second at those latencies.
func fastest(reqs []result) (latency, spaceRate float64, ok int) {
	best := map[requestClass]time.Duration{}
	answered := map[requestClass]int{}
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		ok++
		c := requestClass{kind: r.op.Kind, space: r.op.Space, miss: r.cache == "miss"}
		if d, seen := best[c]; !seen || r.lat < d {
			best[c] = r.lat
		}
		answered[c]++
	}
	// Weighted sums over the classes: seconds of service at each
	// class's fastest, and candidates answered.
	var busy, space float64
	for c, n := range answered {
		busy += float64(n) * best[c].Seconds()
		space += float64(n) * float64(c.space)
	}
	return 1000 * ratio(busy, float64(ok)), ratio(space, busy), ok
}

// requests returns the recommend and pareto results.
func requests(results []result) []result {
	var out []result
	for _, r := range results {
		if r.op.Kind != kindObserve {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns latencies in ms; a failed request counts as
// missing every limit.
func latencies(rs []result) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(r.lat))
	}
	return out
}

// throughput is the requests answered per second of service time: the
// sum of latencies over the clients, so the load generator's checks
// between requests do not count.
func throughput(reqs []result, clients int) float64 {
	ok, busy := 0, 0.0
	for _, r := range reqs {
		busy += r.lat.Seconds()
		if r.err == nil {
			ok++
		}
	}
	return ratio(float64(ok), busy/float64(clients))
}

// lagP99 is how late the generator sent, at the 99th percentile.
func lagP99(results []result) float64 {
	lags := make([]float64, 0, len(results))
	for _, r := range results {
		lags = append(lags, ms(r.lag))
	}
	return quantile(lags, 0.99)
}
