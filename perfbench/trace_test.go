package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestSpansNestAndSumToWallTime replays a tiny instance through every
// traced layer and checks the trace's shape: each span nests inside its
// parent and belongs to the parent's request, siblings do not overlap,
// and the self times of a request's spans add up to its wall time. The
// untraced passes the overhead is measured against record no spans.
func TestSpansNestAndSumToWallTime(t *testing.T) {
	rp, err := newReplay(t.TempDir(), io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.close()
	ctx := context.Background()
	tiny := []chainShape{{3, 2}, {2, 3}}
	ops := []op{}
	for _, kind := range []string{kindRecommend, kindPareto} {
		g := newFreshStream(5, kind, tiny)
		ops = append(ops, g.next(), g.next())
	}
	// One job probe and one overhead measurement per kind.
	for i, o := range ops {
		if err := rp.run(ctx, o, i%2 == 0, i%2 == 1); err != nil {
			t.Fatalf("replay %s: %v", o.Kind, err)
		}
	}

	spans := rp.tr.all()
	roots := map[int]span{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		if s.Parent == -1 {
			if _, dup := roots[s.Req]; dup {
				t.Fatalf("request %d has two roots", s.Req)
			}
			roots[s.Req] = s
			continue
		}
		p := spans[s.Parent]
		if p.Req != s.Req {
			t.Fatalf("span %s of request %d under %s of request %d", s.Name, s.Req, p.Name, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %s [%v, %v] outside its parent %s [%v, %v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if len(roots) != len(ops) {
		t.Fatalf("%d requests traced, want %d", len(roots), len(ops))
	}
	for parent, kids := range children {
		for i := 1; i < len(kids); i++ {
			if kids[i].Start < kids[i-1].End {
				t.Fatalf("under %s, %s starts before %s ends", spans[parent].Name, kids[i].Name, kids[i-1].Name)
			}
		}
	}
	self := selfTimes(spans)
	sum := map[int]time.Duration{}
	for i, s := range spans {
		if self[i] < 0 {
			t.Fatalf("span %s has negative self time %v", s.Name, self[i])
		}
		sum[s.Req] += self[i]
	}
	for req, root := range roots {
		if sum[req] != root.dur() {
			t.Fatalf("request %d: self times sum to %v, wall time %v", req, sum[req], root.dur())
		}
	}

	want := []string{"httpapi.decode", "broker.compile", "optimize.stream", "optimize.solve",
		"broker.recommend", "broker.pareto", "broker.warm", "broker.hit", "httpapi.dto", "httpapi.encode",
		"http", "http.ttfb", "http.body", "http.job", "jobs.wait", "http.fetch"}
	for _, name := range want {
		if len(rp.spanMS(name)) == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if c := rp.coverage(); c <= 0 || c > 1 {
		t.Errorf("coverage %v outside (0, 1]", c)
	}
	if len(rp.jobs) != 2 {
		t.Errorf("%d jobs traced, want a recommend and a pareto probe", len(rp.jobs))
	}
	if rp.overheadRuns != 2 || rp.tracedCalls <= 0 || rp.untracedCalls <= 0 {
		t.Errorf("%d requests replayed both ways, %v traced and %v untraced, want 2 with both times positive",
			rp.overheadRuns, rp.tracedCalls, rp.untracedCalls)
	}
}
