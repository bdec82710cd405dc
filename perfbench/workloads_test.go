package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestFastestWeightsClassMinima checks that each class contributes its
// fastest answered response, weighted by its share of the answered
// requests, and that a failed request counts in no class.
func TestFastestWeightsClassMinima(t *testing.T) {
	res := func(space int, cache string, lat time.Duration, err error) result {
		return result{op: op{Kind: kindRecommend, Space: space}, cache: cache, lat: lat, err: err}
	}
	reqs := []result{
		res(64, "hit", 3*time.Millisecond, nil),
		res(64, "hit", 1*time.Millisecond, nil),
		res(64, "hit", 2*time.Millisecond, nil),
		res(64, "miss", 5*time.Millisecond, nil),
		res(256, "miss", 8*time.Millisecond, nil),
		res(256, "miss", 4*time.Millisecond, errors.New("check failed")),
	}
	latency, spaceRate, ok := fastest(reqs)
	if ok != 5 {
		t.Fatalf("ok = %d, want 5", ok)
	}
	// Three hits at 1 ms, one 64-miss at 5 ms, one 256-miss at 8 ms.
	busy := 3*0.001 + 0.005 + 0.008
	if want := 1000 * busy / 5; math.Abs(latency-want) > 1e-9 {
		t.Errorf("latency = %v ms, want %v", latency, want)
	}
	if want := (4*64 + 256) / busy; math.Abs(spaceRate-want) > 1e-6 {
		t.Errorf("space rate = %v, want %v", spaceRate, want)
	}
}

// TestCalibrationKeepsFastestRun checks the kernel's pacing and the
// scale it gives.
func TestCalibrationKeepsFastestRun(t *testing.T) {
	var c calibration
	if c.scale() != 0 {
		t.Fatalf("scale before any run = %v, want 0", c.scale())
	}
	c.tick()
	first := c.fastestRun()
	if first <= 0 {
		t.Fatalf("fastest run after one tick = %v", first)
	}
	c.tick() // within calibrationEvery of the first: no run
	if c.fastestRun() != first {
		t.Errorf("a tick within %v ran the kernel", calibrationEvery)
	}
	if want := float64(calibrationRef) / float64(first); c.scale() != want {
		t.Errorf("scale = %v, want %v", c.scale(), want)
	}
}
