package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// prime posts o to the in-process server untraced.
func (r *replay) prime(ctx context.Context, o op) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.ts.URL+o.path(), bytes.NewReader(o.Body))
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if err := checkStatus(resp.StatusCode, http.StatusOK); err != nil {
		return err
	}
	_, err = checkRecommendation(body, o.Space)
	return err
}

// spanMS returns the durations in ms of every span named name.
func (r *replay) spanMS(name string) []float64 {
	var out []float64
	for _, s := range r.tr.all() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (r *replay) spanUS(name string) []float64 {
	out := r.spanMS(name)
	for i := range out {
		out[i] *= 1000
	}
	return out
}

// perLayer computes the per-layer metrics of the traced replay.
func (r *replay) perLayer(rep *report) {
	rep.set("httpapi.decode_us", median(r.spanUS("httpapi.decode")), "us")
	rep.set("httpapi.dto_ms", median(r.spanMS("httpapi.dto")), "ms")
	rep.set("httpapi.encode_ms", median(r.spanMS("httpapi.encode")), "ms")
	rep.set("httpapi.resp_bytes", ratio(float64(r.respBytes), float64(r.encodes)), "bytes")
	rep.set("httpapi.alloc_bytes", ratio(float64(r.allocBytes), float64(r.encodes)), "bytes")
	rep.set("http.ttfb_ms", median(r.spanMS("http.ttfb")), "ms")
	rep.set("http.body_ms", median(r.spanMS("http.body")), "ms")

	rep.set("broker.compile_us", median(r.spanUS("broker.compile")), "us")
	rep.set("broker.recommend_ms", median(r.spanMS("broker.recommend")), "ms")
	rep.set("broker.cards_ms", median(r.cardsMS()), "ms")
	rep.set("broker.pareto_ms", median(r.spanMS("broker.pareto")), "ms")
	rep.set("broker.hit_us", median(r.spanUS("broker.hit")), "us")

	cm, _ := r.srvEn.CacheMetrics()
	rep.set("reccache.hit_ratio", cm.HitRate(), "ratio")
	rep.set("reccache.misses", float64(cm.Misses), "count")
	rep.set("reccache.evictions", float64(cm.Evictions), "count")
	rep.set("reccache.bytes", float64(cm.Bytes), "bytes")

	var stream time.Duration
	for _, s := range r.tr.all() {
		if s.Name == "optimize.stream" {
			stream += s.dur()
		}
	}
	solves := float64(len(r.spanMS("optimize.solve")))
	rep.set("optimize.stream_ns_per_candidate", ratio(float64(stream), float64(r.candidates)), "ns")
	rep.set("optimize.solve_ms", median(r.spanMS("optimize.solve")), "ms")
	rep.set("optimize.evaluated", ratio(float64(r.evaluated), solves), "count")
	rep.set("optimize.skipped", ratio(float64(r.skipped), solves), "count")
	rep.set("optimize.skip_ratio", ratio(float64(r.skipped), float64(r.evaluated+r.skipped)), "ratio")

	var queue, run, notify []float64
	for _, j := range r.jobs {
		queue = append(queue, ms(j.started.Sub(j.created)))
		run = append(run, ms(j.finished.Sub(j.started)))
		notify = append(notify, ms(j.event.Sub(j.finished)))
	}
	rep.set("jobs.queue_wait_ms", median(queue), "ms")
	rep.set("jobs.run_ms", median(run), "ms")
	rep.set("jobs.notify_ms", median(notify), "ms")

	writes, bytes, syncs, syncTime := r.fs.snapshot()
	jobs := float64(len(r.jobs))
	rep.set("jobstore.syncs_per_job", ratio(float64(syncs), jobs), "count")
	rep.set("jobstore.sync_us", ratio(us(syncTime), float64(syncs)), "us")
	rep.set("jobstore.bytes_per_job", ratio(float64(bytes), jobs), "bytes")
	rep.set("jobstore.writes_per_sync", ratio(float64(writes), float64(syncs)), "ratio")

	rep.set("trace.coverage", r.coverage(), "ratio")
	rep.set("trace.overhead", ratio(float64(r.tracedCalls), float64(r.untracedCalls)), "ratio")
}

// cardsMS is, per request, the recommend call's time beyond the
// compile, stream and solve calls that replay its phases: the time the
// engine spends building and ranking option cards.
func (r *replay) cardsMS() []float64 {
	type parts struct {
		recommend, phases time.Duration
		has               bool
	}
	byReq := map[int]*parts{}
	for _, s := range r.tr.all() {
		p := byReq[s.Req]
		if p == nil {
			p = &parts{}
			byReq[s.Req] = p
		}
		switch s.Name {
		case "broker.recommend":
			p.recommend, p.has = s.dur(), true
		case "broker.compile", "optimize.stream", "optimize.solve":
			p.phases += s.dur()
		}
	}
	var out []float64
	for _, p := range byReq {
		if p.has {
			out = append(out, ms(p.recommend-p.phases))
		}
	}
	return out
}

// coverage is the share of the in-process server's request time that
// the layer spans account for: the spans on each request's served path
// (decode, the cached engine's miss or hit, DTO conversion, encoding)
// over the round trip of the same request to the server. Time spent
// outside the named layers (the wire, middleware, anything new on the
// path) lowers it.
func (r *replay) coverage() float64 {
	return ratio(float64(r.served), float64(r.httpWall))
}

// brokerdGoVersion asks brokerd which Go built it.
func brokerdGoVersion(ctx context.Context, g *loadgen) string {
	m, err := g.api.Metrics(ctx)
	if err != nil || m.Build == nil {
		return ""
	}
	return m.Build.GoVersion
}
