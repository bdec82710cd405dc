package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Operation kinds: the route an operation is posted to.
const (
	kindRecommend = "recommend" // POST /v2/recommendations
	kindPareto    = "pareto"    // POST /v2/pareto
	kindObserve   = "observe"   // POST /v2/observations
)

// op is one generated client operation. Body is the exact request body
// the benchmark sends; the program receives nothing else.
type op struct {
	Kind  string
	Body  []byte
	Key   int // index into the workload's key set; -1 for a fresh key
	Space int // k^n, the candidate space the request prices
	// Sample marks the request for the oracle check. The generator
	// draws it from the seed, on a stream of its own so the bodies do
	// not depend on it.
	Sample bool
}

// path returns the route the operation is posted to.
func (o op) path() string {
	switch o.Kind {
	case kindRecommend:
		return "/v2/recommendations"
	case kindPareto:
		return "/v2/pareto"
	default:
		return "/v2/observations"
	}
}

// chainShape is one request size: n compute components with k variants
// each (k=2 restricts every component to esx-ha; k=3 lets the catalog
// offer both compute technologies).
type chainShape struct{ n, k int }

func (s chainShape) space() int { return int(math.Pow(float64(s.k), float64(s.n))) }

// The fresh-key workloads draw their sizes from a cycle: each cycle
// holds every shape in a fixed share, shuffled by the seed. The shares
// put the median and p90 latency inside one size's latencies rather
// than on the step between two sizes, where a run that drew a few more
// of one size would move them by the step.
var (
	// Listed by latency: median mid-way through n=12, p90 mid-way
	// through n=14.
	coldShapes = []chainShape{{10, 2}, {7, 3}, {12, 2}, {12, 2}, {12, 2}, {12, 2}, {13, 2}, {9, 3}, {14, 2}, {14, 2}}
	// Median a third of the way through n=18, p90 within n=19.
	frontierShapes = []chainShape{{17, 2}, {11, 3}, {18, 2}, {18, 2}, {18, 2}, {19, 2}}
	hotShapes      = []chainShape{{6, 2}, {8, 2}, {10, 2}}
)

const (
	hotKeys       = 64
	hotZipfS      = 1.1
	observeEvery  = 5 * time.Second
	observeOffset = observeEvery / 2
	// oracleEvery is the mean spacing of oracle samples among requests.
	oracleEvery = 16
)

// The request bodies are built from the benchmark's own copies of the
// wire shapes (docs/api.md), so the inputs stay byte-identical however
// the program's types change.
type (
	wireComponent struct {
		Name        string `json:"name"`
		Layer       string `json:"layer"`
		ActiveNodes int    `json:"active_nodes"`
	}
	wireSystem struct {
		Name       string          `json:"name"`
		Provider   string          `json:"provider"`
		Components []wireComponent `json:"components"`
	}
	wireRequest struct {
		Base              wireSystem          `json:"base"`
		SLAPercent        float64             `json:"sla_percent"`
		PenaltyPerHourUSD float64             `json:"penalty_per_hour_usd"`
		AllowedTechs      map[string][]string `json:"allowed_techs,omitempty"`
	}
	wireObservation struct {
		Provider string  `json:"provider"`
		Class    string  `json:"class"`
		Kind     string  `json:"kind"`
		Seconds  float64 `json:"seconds"`
	}
)

const (
	provider     = "softlayer-sim"
	computeHA    = "esx-ha"
	computeLayer = "compute"
	computeClass = "vm.virtualized"
	exposureKind = "exposure"
)

// request builds a recommendation request for one chain shape.
func request(name string, s chainShape, sla, penalty float64) wireRequest {
	comps := make([]wireComponent, s.n)
	var allowed map[string][]string
	if s.k == 2 {
		allowed = make(map[string][]string, s.n)
	}
	for i := range comps {
		c := fmt.Sprintf("c%02d", i)
		comps[i] = wireComponent{Name: c, Layer: computeLayer, ActiveNodes: 1}
		if allowed != nil {
			allowed[c] = []string{computeHA}
		}
	}
	return wireRequest{
		Base:              wireSystem{Name: name, Provider: provider, Components: comps},
		SLAPercent:        sla,
		PenaltyPerHourUSD: penalty,
		AllowedTechs:      allowed,
	}
}

// terms draws a seeded SLA in [95, 99.9] and a penalty of $20-$1000 per
// hour in whole cents, wide enough that the optimum moves between the
// no-HA baseline and heavily clustered options.
func terms(r *rand.Rand) (sla, penalty float64) {
	sla = 95 + 4.9*r.Float64()
	penalty = float64(2000+r.Intn(98000)) / 100
	return sla, penalty
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal generated request: %v", err))
	}
	return b
}

// sampler returns a seeded draw of oracle samples: about one request
// in oracleEvery.
func sampler(seed int64) func() bool {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	return func() bool { return r.Intn(oracleEvery) == 0 }
}

// freshStream yields an endless closed-loop stream of fresh content
// addresses: every request draws its own terms, and its shape from the
// current cycle.
type freshStream struct {
	r      *rand.Rand
	sample func() bool
	kind   string
	shapes []chainShape
	cycle  []int // shape indexes left in the current cycle
	i      int
}

func newFreshStream(seed int64, kind string, shapes []chainShape) *freshStream {
	return &freshStream{r: rand.New(rand.NewSource(seed)), sample: sampler(seed), kind: kind, shapes: shapes}
}

func (g *freshStream) next() op {
	if len(g.cycle) == 0 {
		g.cycle = g.r.Perm(len(g.shapes))
	}
	s := g.shapes[g.cycle[0]]
	g.cycle = g.cycle[1:]
	sla, penalty := terms(g.r)
	g.i++
	req := request(fmt.Sprintf("%s-%d", g.kind, g.i), s, sla, penalty)
	return op{Kind: g.kind, Body: mustJSON(req), Key: -1, Space: s.space(), Sample: g.sample()}
}

// keyedPlan is recommend-hot's input: a fixed set of keys posted
// synchronously with Zipf popularity.
type keyedPlan struct {
	bodies [][]byte
	spaces []int
	seed   int64
}

func newHotPlan(seed int64) keyedPlan {
	// Under Zipf(1.1) the keys i%3 == 0, 1, 2 draw 46%, 30% and 24% of
	// requests; giving them n = 8, 10, 6 puts the median well inside
	// the n=8 group and p90 inside the n=10 group, away from the steps
	// between the groups' latencies.
	r := rand.New(rand.NewSource(seed))
	p := keyedPlan{seed: seed}
	for i := 0; i < hotKeys; i++ {
		s := hotShapes[(i+1)%len(hotShapes)]
		sla, penalty := terms(r)
		p.bodies = append(p.bodies, mustJSON(request(fmt.Sprintf("hot-%d", i), s, sla, penalty)))
		p.spaces = append(p.spaces, s.space())
	}
	return p
}

// prime returns the request of key k.
func (p keyedPlan) prime(k int) op {
	return op{Kind: kindRecommend, Body: p.bodies[k], Key: k, Space: p.spaces[k]}
}

// clientStream returns client c's endless, seeded stream of keys.
func (p keyedPlan) clientStream(c int) func() op {
	seed := p.seed*31 + int64(c) + 1
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, uint64(len(p.bodies)-1))
	sample := sampler(seed)
	return func() op {
		o := p.prime(int(z.Uint64()))
		o.Sample = sample()
		return o
	}
}

// observationStream returns recommend-hot's seeded telemetry
// observations: exposure for the compute class the generated chains
// use. Any observation bumps the params epoch, which re-addresses
// every cached result.
func observationStream(seed int64) func() op {
	r := rand.New(rand.NewSource(seed * 31))
	return func() op {
		o := wireObservation{
			Provider: provider,
			Class:    computeClass,
			Kind:     exposureKind,
			Seconds:  float64(3600 * (1 + r.Intn(24))),
		}
		return op{Kind: kindObserve, Body: mustJSON(o), Key: -1}
	}
}
