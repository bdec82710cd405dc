package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sync"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/faultfs"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
)

// replay is the traced run: it replays generated operations in
// process, timing each call into a layer's public functions from the
// outside, and sends each through an in-process httpapi.Server over a
// loopback listener.
type replay struct {
	tr   *tracer
	cold *broker.Engine // no cache: every call runs the full pipeline
	warm *broker.Engine // one-entry cache, warmed right before each hit
	// plainWarm is warm's twin for the untraced passes, so that each
	// pass finds its one-entry cache holding the previous request.
	plainWarm *broker.Engine
	srvEn     *broker.Engine // the in-process server's engine, production cache
	srv       *httpapi.Server
	ts        *httptest.Server
	hc        *http.Client
	api       *httpapi.Client
	fs        *countingFS

	mu sync.Mutex // guards the fields below
	// recommendOnPareto records that the one Recommend call replayed on
	// a pareto request was made: on the first request whose space is at
	// most recommendOnParetoSpace, as a frontier request's space is too
	// large to build its cards every time.
	recommendOnPareto bool
	candidates        int64 // candidates streamed by optimize.stream spans
	evaluated         int64 // solver evaluations over all solve spans
	skipped           int64
	respBytes         int64 // encoded bytes over all encode spans
	allocBytes        uint64
	encodes           int64
	jobs              []jobTimes // one per job waited for
	requests          int
	// served sums the layer spans on the in-process server's path of
	// each request, httpWall the requests' round trips to that server.
	served, httpWall time.Duration
	// Over the requests replayed both ways: how many, and the wall time
	// of their layer calls traced and untraced.
	overheadRuns               int
	tracedCalls, untracedCalls time.Duration
}

// newReplay builds the in-process service the way brokerd wires it,
// with the durable job store under dir on a counting filesystem. The
// client opens at most conns connections.
func newReplay(dir string, logOut io.Writer, conns int) (*replay, error) {
	store := telemetry.NewStore()
	reg := obs.NewRegistry()
	srvEn, err := newEngine(store, broker.WithMetricsRegistry(reg),
		broker.WithResultCache(reccache.New(reccache.Config{MaxEntries: 1024})))
	if err != nil {
		return nil, err
	}
	cold, err := newEngine(store)
	if err != nil {
		return nil, err
	}
	warm, err := newEngine(store, broker.WithResultCache(reccache.New(reccache.Config{MaxEntries: 1})))
	if err != nil {
		return nil, err
	}
	plainWarm, err := newEngine(store, broker.WithResultCache(reccache.New(reccache.Config{MaxEntries: 1})))
	if err != nil {
		return nil, err
	}
	cfs := &countingFS{FS: faultfs.OS()}
	srv, err := httpapi.NewServer(srvEn, store, log.New(logOut, "brokerd ", log.LstdFlags|log.Lmicroseconds),
		httpapi.WithMetricsRegistry(reg),
		httpapi.WithJobDir(dir), httpapi.WithJobGroupCommit(), httpapi.WithJobFS(cfs))
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	api, err := httpapi.NewClient(ts.URL, hc)
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, err
	}
	return &replay{tr: newTracer(), cold: cold, warm: warm, plainWarm: plainWarm, srvEn: srvEn, srv: srv, ts: ts, hc: hc, api: api, fs: cfs}, nil
}

func (r *replay) close() {
	r.hc.CloseIdleConnections()
	r.ts.Close()
	r.srv.Close()
}

// run replays one operation. Observations are posted untraced: they
// only move the params epoch, as in the untraced run. probeJob also
// submits the request as an async job. overhead also makes the
// request's layer calls once without a tracer, in turn before and
// after the traced calls, to measure what tracing costs them.
func (r *replay) run(ctx context.Context, o op, probeJob, overhead bool) error {
	if o.Kind == kindObserve {
		resp, err := r.hc.Post(r.ts.URL+o.path(), "application/json", bytes.NewReader(o.Body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return checkStatus(resp.StatusCode, http.StatusAccepted)
	}
	r.mu.Lock()
	req := r.requests
	r.requests++
	// The untraced pass goes first on every other request replayed both
	// ways, so neither pass always inherits the other's garbage.
	untracedFirst := overhead && r.overheadRuns%2 == 0
	if overhead {
		r.overheadRuns++
	}
	r.mu.Unlock()
	var untraced time.Duration
	if untracedFirst {
		var err error
		if untraced, err = r.untraced(ctx, o); err != nil {
			return err
		}
	}

	tr := r.tr
	root := tr.start(req, -1, "request")
	lc, err := r.layers(ctx, tr, req, root, o, r.warm)
	if err != nil {
		return err
	}
	if o.Kind == kindPareto && r.takeRecommendOnPareto(o.Space) {
		s := tr.start(req, root, "broker.recommend")
		_, err := r.cold.Recommend(ctx, lc.breq)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	check, hit, h, err := r.post(ctx, req, root, o)
	if err != nil {
		return err
	}
	checks := []func() error{check}
	if probeJob {
		check, err := r.job(ctx, req, root, o.Kind, lc.wire, o.Space)
		if err != nil {
			return err
		}
		checks = append(checks, check)
	}
	tr.end(root)

	if overhead && !untracedFirst {
		if untraced, err = r.untraced(ctx, o); err != nil {
			return err
		}
	}
	// The in-process server's path for this request is decode, the
	// call into its cached engine (a miss like the warm-up call, or a
	// hit), DTO conversion and encoding.
	engine := lc.warm
	if hit {
		engine = lc.hit
	}
	var served time.Duration
	for _, id := range []int{lc.decode, engine, lc.dto, lc.encode} {
		served += tr.get(id).dur()
	}
	traced := tr.get(lc.encode).End - tr.get(lc.decode).Start
	r.count(func() {
		r.candidates += lc.candidates
		r.evaluated += lc.evaluated
		r.skipped += lc.skipped
		r.respBytes += lc.respBytes
		r.allocBytes += lc.allocBytes
		r.encodes++
		r.served += served
		r.httpWall += tr.get(h).dur()
		if overhead {
			r.tracedCalls += traced
			r.untracedCalls += untraced
		}
	})
	for _, check := range checks {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// layerCalls is what one pass over a request's layer calls produced.
type layerCalls struct {
	wire               httpapi.RecommendationRequest
	breq               broker.Request
	candidates         int64 // streamed by optimize.stream
	evaluated, skipped int64 // by optimize.solve
	respBytes          int64
	allocBytes         uint64 // allocated across DTO conversion and encoding
	// Span IDs of the calls on a served request's path: decode, the
	// cached engine's miss and hit, DTO conversion, encoding.
	decode, warm, hit, dto, encode int
}

// layers makes one request's calls into the layers in process, one
// after another, each in a span of tr under root; warm is the engine
// whose one-entry cache is filled right before the timed hit. With a
// nil tr nothing is recorded and no memory statistics are read: that
// is the untraced pass the tracing overhead is measured against.
func (r *replay) layers(ctx context.Context, tr *tracer, req, root int, o op, warm *broker.Engine) (layerCalls, error) {
	var lc layerCalls
	lc.decode = tr.start(req, root, "httpapi.decode")
	if err := json.NewDecoder(bytes.NewReader(o.Body)).Decode(&lc.wire); err != nil {
		return lc, err
	}
	lc.breq = lc.wire.ToBroker()
	tr.end(lc.decode)

	s := tr.start(req, root, "broker.compile")
	p, err := r.cold.Compile(lc.breq)
	tr.end(s)
	if err != nil {
		return lc, err
	}

	s = tr.start(req, root, "optimize.stream")
	var sink float64
	err = p.StreamContext(ctx, func(c *optimize.Cursor) error {
		lc.candidates++
		sink += c.TCO().ExpectedPenalty.Dollars()
		return nil
	})
	tr.end(s)
	if err != nil {
		return lc, err
	}
	r.count(func() { streamSink = sink })

	cfg := lc.breq.Solver
	if cfg.Strategy == "" {
		cfg.Strategy = lc.breq.Strategy
	}
	s = tr.start(req, root, "optimize.solve")
	res, err := optimize.SolveConfig(ctx, p, cfg)
	tr.end(s)
	if err != nil {
		return lc, err
	}
	lc.evaluated, lc.skipped = int64(res.Evaluated), int64(res.Skipped)

	s = tr.start(req, root, "broker.pareto")
	front, err := r.cold.Pareto(ctx, lc.breq)
	tr.end(s)
	if err != nil {
		return lc, err
	}

	var payload any
	var mem0, mem1 runtime.MemStats
	if o.Kind == kindPareto {
		if err := lc.warmHit(tr, req, root, func() error { _, err := warm.Pareto(ctx, lc.breq); return err }); err != nil {
			return lc, err
		}
		if tr != nil {
			runtime.ReadMemStats(&mem0)
		}
		lc.dto = tr.start(req, root, "httpapi.dto")
		payload = httpapi.FromRecommendation(&broker.Recommendation{Cards: front}).Cards
		tr.end(lc.dto)
	} else {
		s = tr.start(req, root, "broker.recommend")
		rec, err := r.cold.Recommend(ctx, lc.breq)
		tr.end(s)
		if err != nil {
			return lc, err
		}
		if err := lc.warmHit(tr, req, root, func() error { _, err := warm.Recommend(ctx, lc.breq); return err }); err != nil {
			return lc, err
		}
		if tr != nil {
			runtime.ReadMemStats(&mem0)
		}
		lc.dto = tr.start(req, root, "httpapi.dto")
		payload = httpapi.FromRecommendation(rec)
		tr.end(lc.dto)
	}

	lc.encode = tr.start(req, root, "httpapi.encode")
	var cw countingWriter
	err = json.NewEncoder(&cw).Encode(payload)
	tr.end(lc.encode)
	if tr != nil {
		runtime.ReadMemStats(&mem1)
	}
	lc.respBytes, lc.allocBytes = cw.n, mem1.TotalAlloc-mem0.TotalAlloc
	return lc, err
}

// untraced makes o's layer calls without a tracer, on an engine pair
// in the same state as the traced pass's, and returns their wall time.
func (r *replay) untraced(ctx context.Context, o op) (time.Duration, error) {
	start := time.Now()
	_, err := r.layers(ctx, nil, 0, 0, o, r.plainWarm)
	return time.Since(start), err
}

// count updates the replay's counters under its lock.
func (r *replay) count(update func()) {
	r.mu.Lock()
	update()
	r.mu.Unlock()
}

// recommendOnParetoSpace bounds the one Recommend call replayed on a
// pareto request: 2^17 cards.
const recommendOnParetoSpace = 1 << 17

func (r *replay) takeRecommendOnPareto(space int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recommendOnPareto || space > recommendOnParetoSpace {
		return false
	}
	r.recommendOnPareto = true
	return true
}

// warmHit fills warm's one-entry cache in a span of its own
// ("broker.warm"), then times the hit.
func (lc *layerCalls) warmHit(tr *tracer, req, root int, call func() error) error {
	lc.warm = tr.start(req, root, "broker.warm")
	err := call()
	tr.end(lc.warm)
	if err != nil {
		return err
	}
	lc.hit = tr.start(req, root, "broker.hit")
	err = call()
	tr.end(lc.hit)
	return err
}

// post sends o to the in-process server, timing the first response
// byte and the body with httptrace. It returns a check to run after
// the request's spans are closed, whether the server answered from its
// cache, and the ID of the request's "http" span.
func (r *replay) post(ctx context.Context, req, root int, o op) (check func() error, hit bool, h int, err error) {
	tr := r.tr
	h = tr.start(req, root, "http")
	start := time.Now()
	var first time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Now() }})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.ts.URL+o.path(), bytes.NewReader(o.Body))
	if err != nil {
		return nil, false, h, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(hreq)
	if err != nil {
		return nil, false, h, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	tr.end(h)
	if err != nil {
		return nil, false, h, err
	}
	if first.IsZero() {
		first = start
	}
	tr.add(req, h, "http.ttfb", tr.at(start), tr.at(first))
	tr.add(req, h, "http.body", tr.at(first), tr.get(h).End)
	status := resp.StatusCode
	xcache := resp.Header.Get("X-Cache")
	check = func() error {
		if err := checkStatus(status, http.StatusOK); err != nil {
			return err
		}
		if o.Kind == kindPareto {
			_, err := checkFrontier(body)
			return err
		}
		_, err := checkRecommendation(body, o.Space)
		return err
	}
	return check, xcache == "hit" || xcache == "shared", h, nil
}

// job submits the request as an async job to the in-process server
// and waits for its terminal event over SSE, splitting the wait into
// the submit round trip, the time to the terminal event, and the
// result fetch WaitJob makes after it.
func (r *replay) job(ctx context.Context, req, root int, kind string, wire httpapi.RecommendationRequest, space int) (func() error, error) {
	tr := r.tr
	h := tr.start(req, root, "http.job")
	start := time.Now()
	var first time.Time
	tctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Now() }})
	snap, err := r.api.SubmitJob(tctx, kind, wire)
	submitted := time.Now()
	if err != nil {
		return nil, err
	}
	var event time.Time
	final, err := r.api.WaitJob(ctx, snap.ID, httpapi.WithProgress(func(p httpapi.JobProgress) {
		if event.IsZero() && p.State != "queued" && p.State != "running" {
			event = time.Now()
		}
	}))
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if first.IsZero() {
		first = start
	}
	if event.IsZero() {
		return nil, fmt.Errorf("job %s: no terminal event", snap.ID)
	}
	tr.add(req, h, "http.ttfb", tr.at(start), tr.at(first))
	tr.add(req, h, "http.body", tr.at(first), tr.at(submitted))
	tr.add(req, h, "jobs.wait", tr.at(submitted), tr.at(event))
	tr.add(req, h, "http.fetch", tr.at(event), tr.get(h).End)
	jt := jobTimes{created: final.CreatedAt, event: event}
	if final.StartedAt != nil {
		jt.started = *final.StartedAt
	}
	if final.FinishedAt != nil {
		jt.finished = *final.FinishedAt
	}
	r.count(func() { r.jobs = append(r.jobs, jt) })
	return func() error {
		if final.State != "done" {
			return fmt.Errorf("job %s ended %s", final.ID, final.State)
		}
		if kind == httpapi.JobKindPareto {
			_, err := final.ParetoFront()
			return err
		}
		rec, err := final.Recommendation()
		if err != nil {
			return err
		}
		if len(rec.Cards) != space {
			return fmt.Errorf("job %s has %d cards, want %d", final.ID, len(rec.Cards), space)
		}
		return nil
	}, nil
}

// streamSink keeps the streamed values live.
var streamSink float64

// jobTimes are one job's server-side stamps and the arrival of its
// terminal event.
type jobTimes struct {
	created, started, finished, event time.Time
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
