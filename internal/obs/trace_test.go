package obs

import (
	"context"
	"testing"
)

// TestWithTraceLayersHooks: a layer's non-nil hooks replace the
// inherited ones, its nil hooks keep them, and the parent context's
// trace is left as it was.
func TestWithTraceLayersHooks(t *testing.T) {
	var heard []string
	parent := WithTrace(context.Background(), Trace{
		Progress: func(done, total int64) { heard = append(heard, "outer progress") },
		Strategy: func(s string) { heard = append(heard, "outer strategy "+s) },
		Cache:    func(s string) { heard = append(heard, "outer cache "+s) },
	})
	child := WithTrace(parent, Trace{
		Progress: func(done, total int64) { heard = append(heard, "inner progress") },
	})

	tr := TraceFrom(child)
	tr.Progress(1, 2)
	tr.Strategy("pruned")
	tr.Cache("hit")
	TraceFrom(parent).Progress(1, 2)

	want := []string{"inner progress", "outer strategy pruned", "outer cache hit", "outer progress"}
	if len(heard) != len(want) {
		t.Fatalf("heard %q, want %q", heard, want)
	}
	for i := range want {
		if heard[i] != want[i] {
			t.Fatalf("heard %q, want %q", heard, want)
		}
	}
}

// TestZeroTraceIsInert: a context without a trace (or a nil one)
// yields the zero Trace, and layering a zero Trace changes nothing.
func TestZeroTraceIsInert(t *testing.T) {
	for _, ctx := range []context.Context{context.Background(), nil} {
		if tr := TraceFrom(ctx); tr.Progress != nil || tr.Strategy != nil || tr.Cache != nil {
			t.Fatalf("TraceFrom(%v) = %+v, want the zero Trace", ctx, tr)
		}
	}
	if tr := TraceFrom(WithTrace(context.Background(), Trace{})); tr.Progress != nil || tr.Strategy != nil || tr.Cache != nil {
		t.Fatalf("zero layer produced hooks: %+v", tr)
	}

	cached := ""
	ctx := WithTrace(context.Background(), Trace{Cache: func(s string) { cached = s }})
	tr := TraceFrom(WithTrace(ctx, Trace{}))
	if tr.Progress != nil || tr.Strategy != nil || tr.Cache == nil {
		t.Fatalf("zero layer over a Cache hook = %+v, want only Cache", tr)
	}
	tr.Cache("miss")
	if cached != "miss" {
		t.Fatalf("inherited Cache hook heard %q, want miss", cached)
	}
}
