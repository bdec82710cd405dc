package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// streamDigest hashes the first n operations of every workload's
// request stream for one seed: kinds, keys, bodies and oracle samples.
func streamDigest(seed int64, n int) string {
	h := sha256.New()
	write := func(o op) {
		h.Write([]byte(o.Kind))
		h.Write([]byte{byte(o.Key)})
		h.Write(o.Body)
		if o.Sample {
			h.Write([]byte{1})
		}
	}
	for _, kind := range []string{kindRecommend, kindPareto} {
		shapes := coldShapes
		if kind == kindPareto {
			shapes = frontierShapes
		}
		g := newFreshStream(seed, kind, shapes)
		for i := 0; i < n; i++ {
			write(g.next())
		}
	}
	plan := newHotPlan(seed)
	for k := range plan.bodies {
		write(plan.prime(k))
	}
	for c := 0; c < 2; c++ {
		next := plan.clientStream(c)
		for i := 0; i < n; i++ {
			write(next())
		}
	}
	observe := observationStream(seed)
	for i := 0; i < n; i++ {
		write(observe())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorIsSeeded(t *testing.T) {
	if a, b := streamDigest(7, 200), streamDigest(7, 200); a != b {
		t.Fatalf("seed 7 gave two different streams: %s vs %s", a, b)
	}
	if a, b := streamDigest(7, 50), streamDigest(8, 50); a == b {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// TestGeneratorPinned pins the request stream of seed 1 byte for byte:
// a change to the generator changes every workload's inputs, and with
// them every baseline measured before it.
func TestGeneratorPinned(t *testing.T) {
	const want = "484debd22a2b7c5aaa90ee5f8e096fca17ac210e3c03160cb92382986c73493c"
	if got := streamDigest(1, 100); got != want {
		t.Fatalf("seed 1 stream digest %s, pinned %s", got, want)
	}
}

// TestHotPopularity checks recommend-hot's key draws: Zipf popularity
// with the shares the size assignment relies on.
func TestHotPopularity(t *testing.T) {
	plan := newHotPlan(3)
	next := plan.clientStream(0)
	const draws = 20000
	perSpace := map[int]int{}
	for i := 0; i < draws; i++ {
		perSpace[next().Space]++
	}
	for space, want := range map[int]float64{256: 0.46, 1024: 0.30, 64: 0.24} {
		if got := float64(perSpace[space]) / draws; got < want-0.03 || got > want+0.03 {
			t.Errorf("space %d drew %.3f of requests, want about %.2f", space, got, want)
		}
	}
}
