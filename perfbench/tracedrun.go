package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// jobProbes is how many requests per client are also submitted as
// async jobs in the traced run, so the jobs and jobstore layers are
// measured on every workload.
const jobProbes = 3

// overheadEvery spaces the requests whose layer calls are also made
// untraced, to measure the tracing overhead.
const overheadEvery = 4

// tracedRun measures per-layer metrics. The first half of the run
// drives brokerd untraced (the loadgen counters); the second half
// replays the same generated requests in process, with as many clients
// as the workload has, and a span around every layer call.
func tracedRun(ctx context.Context, cfg config, w workload) (report, hostInfo, error) {
	half := cfg.run / 2
	s, _, err := w.start(ctx, cfg)
	if err != nil {
		return report{}, hostInfo{}, err
	}
	results := w.load(ctx, cfg, s, half)
	host := newHostInfo(cfg, s.b.args)
	host.BrokerdGo = brokerdGoVersion(ctx, s.g)
	s.stop()
	oracleErr := verifyOracle(ctx, s.g.samples, observations(results))

	logf, err := os.Create(filepath.Join(cfg.dir, "traced-server.log"))
	if err != nil {
		return report{}, host, fmt.Errorf("open traced server log: %w", err)
	}
	defer logf.Close()
	// Every replay client may hold a job's event stream open while
	// WaitJob fetches its result.
	rp, err := newReplay(filepath.Join(cfg.dir, "jobs", "traced"), logf, 2*max(1, w.clients))
	if err != nil {
		return report{}, host, err
	}
	defer rp.close()
	clients, err := replayOps(ctx, cfg, w, s, rp)
	if err != nil {
		return report{}, host, err
	}
	gc0 := gcCPU()
	start := time.Now()
	deadline := start.Add(half)
	errs := make([]error, len(clients)+1)
	var wg sync.WaitGroup
	for c, ops := range clients {
		wg.Add(1)
		go func(c int, ops []op) {
			defer wg.Done()
			for i, o := range ops {
				if i > 0 && time.Now().After(deadline) {
					return
				}
				if err := rp.run(ctx, o, i < jobProbes, i%overheadEvery == overheadEvery-1); err != nil {
					errs[c] = fmt.Errorf("traced replay: %w", err)
					return
				}
			}
		}(c, ops)
	}
	if w.observe {
		// Observations go out on the untraced run's schedule.
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := observationStream(cfg.seed)
			for at := start.Add(observeOffset); at.Before(deadline); at = at.Add(observeEvery) {
				select {
				case <-time.After(time.Until(at)):
				case <-ctx.Done():
					return
				}
				if err := rp.run(ctx, next(), false, false); err != nil {
					errs[len(clients)] = fmt.Errorf("traced replay: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	gc1 := gcCPU()
	if err := writeSpans(filepath.Join(cfg.dir, "spans.jsonl"), rp.tr.all()); err != nil {
		return report{}, host, err
	}

	rep := report{Metrics: map[string]metric{}}
	rp.perLayer(&rep)
	untraced := requests(results)
	lats := latencies(untraced)
	rep.set("loadgen.latency_p50_ms", quantile(lats, 0.5), "ms")
	rep.set("loadgen.latency_p90_ms", quantile(lats, 0.9), "ms")
	rep.set("loadgen.latency_p99_ms", quantile(lats, 0.99), "ms")
	rep.set("loadgen.throughput_rps", throughput(untraced, w.clients), "1/s")
	latency, _, _ := fastest(untraced)
	rep.set("loadgen.latency_min_ms", latency, "ms")
	rep.set("loadgen.calibration_us", us(s.g.cal.fastestRun()), "us")
	sent, ok := len(results), 0
	for _, r := range results {
		if r.err == nil {
			ok++
		}
	}
	rep.set("loadgen.lag_p99_ms", lagP99(results), "ms")
	rep.set("loadgen.sent", float64(sent), "count")
	rep.set("loadgen.ok", float64(ok), "count")
	rep.set("loadgen.failed", float64(sent-ok), "count")
	rep.set("runtime.gc_cpu_fraction", ratio(gc1.gc-gc0.gc, gc1.total-gc0.total), "ratio")
	if err := errors.Join(errs...); err != nil {
		oracleErr = errors.Join(oracleErr, err)
	}
	finish(&rep, results, oracleErr)
	return rep, host, nil
}

// replayOps returns, per client, the operations the traced run
// replays: each client's stream from the start, more than the replay's
// half of the run can take (it stops at the deadline). It primes the
// in-process server the way the untraced run primed brokerd.
func replayOps(ctx context.Context, cfg config, w workload, s *session, rp *replay) ([][]op, error) {
	for k := range s.plan.bodies {
		if err := rp.prime(ctx, s.plan.prime(k)); err != nil {
			return nil, err
		}
	}
	const maxOps = 2048
	var out [][]op
	for _, next := range w.streams(cfg, s) {
		ops := make([]op, maxOps)
		for i := range ops {
			ops[i] = next()
		}
		out = append(out, ops)
	}
	return out, nil
}

type cpuSeconds struct{ gc, total float64 }

// gcCPU reads the process's cumulative GC and total CPU time.
func gcCPU() cpuSeconds {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var c cpuSeconds
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.total = samples[1].Value.Float64()
	}
	return c
}
