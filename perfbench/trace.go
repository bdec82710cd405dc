package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, or -1 for the request's
// root span.
type span struct {
	Req    int           `json:"req"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run
// ends, so recording costs one append under a lock. A nil *tracer
// records nothing: start and add return -1, and get a zero span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	return t.add(req, parent, name, time.Since(t.epoch), 0)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// all returns the recorded spans; call it once recording has stopped.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// at converts a wall-clock instant to trace time.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch) }

// add records a span with known bounds.
func (t *tracer) add(req, parent int, name string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of a span never overlap: each request's
// calls are made one after another.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
