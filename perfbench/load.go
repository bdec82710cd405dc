package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uptimebroker/internal/httpapi"
)

// result is one completed (or failed) operation.
type result struct {
	op    op
	lat   time.Duration // send to last body byte
	lag   time.Duration // previous completion to send; observations: due to send
	sent  time.Time
	err   error
	cache string // the X-Cache header of a recommend or pareto response
}

// oracleSample is a response kept for the in-process oracle check.
type oracleSample struct {
	op            op
	observations  int // observations applied before the request was served
	bestOption    int
	minRiskOption int
	frontier      []wireCard
}

// loadgen drives one brokerd over loopback HTTP.
type loadgen struct {
	url  string
	http *http.Client
	api  *httpapi.Client

	mu      sync.Mutex
	samples []oracleSample

	// Telemetry observations started and finished so far.
	obsStarted, obsDone atomic.Int64

	hot *hotChecker

	// cal times the calibration kernel between requests.
	cal calibration
	// answered, when set, is called after each closed-loop request
	// with the number of requests completed so far.
	answered func(n int64)
}

func newLoadgen(url string, conns int) (*loadgen, error) {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	api, err := httpapi.NewClient(url, hc)
	if err != nil {
		return nil, err
	}
	return &loadgen{url: url, http: hc, api: api}, nil
}

func (g *loadgen) close() { g.http.CloseIdleConnections() }

// post sends body and reads the whole response; it returns the status,
// the X-Cache header and the body.
func (g *loadgen) post(ctx context.Context, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.http.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, fmt.Errorf("read %s response: %w", path, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, nil
}

func (g *loadgen) keep(s oracleSample) {
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
}

// do runs one operation and checks its response; res.err is set when
// the request failed or a check rejected the response.
func (g *loadgen) do(ctx context.Context, o op) result {
	res := result{op: o, sent: time.Now()}
	switch o.Kind {
	case kindRecommend, kindPareto:
		obsBefore := g.obsDone.Load()
		status, xcache, body, err := g.post(ctx, o.path(), o.Body)
		res.lat = time.Since(res.sent)
		res.cache = xcache
		if err != nil {
			res.err = err
			return res
		}
		obsAfter := g.obsStarted.Load()
		res.err = g.check(o, status, xcache, body, obsBefore, obsAfter)
	case kindObserve:
		g.obsStarted.Add(1)
		status, _, _, err := g.post(ctx, o.path(), o.Body)
		res.lat = time.Since(res.sent)
		g.obsDone.Add(1)
		if err == nil {
			err = checkStatus(status, http.StatusAccepted)
		}
		res.err = err
	}
	return res
}

// check verifies a recommend or pareto response and keeps it for the
// oracle when the generator sampled it. obsBefore observations had
// finished when the request was sent and obsAfter had started when it
// was answered.
func (g *loadgen) check(o op, status int, xcache string, body []byte, obsBefore, obsAfter int64) error {
	if g.hot != nil {
		if err := g.hot.check(o, status, xcache, body, obsBefore, obsAfter); err != nil {
			return err
		}
		// Sample only responses served in a known params epoch.
		if obsBefore == obsAfter && o.Sample {
			rec, err := checkRecommendation(body, o.Space)
			if err != nil {
				return err
			}
			g.keep(oracleSample{op: o, observations: int(obsBefore), bestOption: rec.BestOption, minRiskOption: rec.MinRiskOption})
		}
		return nil
	}
	if err := checkStatus(status, http.StatusOK); err != nil {
		return err
	}
	if xcache != "miss" {
		return fmt.Errorf("X-Cache %q on a fresh content address, want miss", xcache)
	}
	if o.Kind == kindPareto {
		front, err := checkFrontier(body)
		if err == nil && o.Sample {
			g.keep(oracleSample{op: o, frontier: front})
		}
		return err
	}
	rec, err := checkRecommendation(body, o.Space)
	if err == nil && o.Sample {
		g.keep(oracleSample{op: o, bestOption: rec.BestOption, minRiskOption: rec.MinRiskOption})
	}
	return err
}

// closedLoop runs clients that each send their next operation only
// after the previous one completed, until the deadline. With observe
// set, one more sender posts an observation every observeEvery,
// starting observeOffset in; observations come last in the result, in
// the order they were posted.
func (g *loadgen) closedLoop(ctx context.Context, deadline time.Time, streams []func() op, observe func() op) []result {
	out := make([][]result, len(streams)+1)
	start := time.Now()
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := time.Now()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := streams[c]()
				r := g.do(ctx, o)
				r.lag = r.sent.Sub(last)
				out[c] = append(out[c], r)
				if g.answered != nil {
					g.answered(answered.Add(1))
				}
				// Collect the checked body's garbage now, so the load
				// generator's collector does not run while brokerd
				// answers the next request.
				runtime.GC()
				g.cal.tick()
				last = time.Now()
			}
		}(c)
	}
	if observe != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := start.Add(observeOffset); at.Before(deadline); at = at.Add(observeEvery) {
				select {
				case <-time.After(time.Until(at)):
				case <-ctx.Done():
					return
				}
				r := g.do(ctx, observe())
				r.lag = r.sent.Sub(at)
				out[len(streams)] = append(out[len(streams)], r)
			}
		}()
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}
