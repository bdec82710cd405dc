package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts: on a shared virtual machine the same
// brokerd answers the same requests up to 20% slower from one run to
// the next, while other tenants load the physical cores. Each run
// therefore times a fixed calibration kernel between its requests and
// scales its latencies to a reference host, on which the kernel's
// fastest run takes calibrationRef: a normalized latency reads
// latency * calibrationRef / (the kernel's fastest run in this run).
// The kernel does the kind of work brokerd does on every request, a
// JSON round trip of option cards, on every thread of the load
// generator at once, because brokerd spreads a request over the cores
// (parallel pricing, its garbage collector) and a slow core stretches
// it. It runs in the load generator, so a change to the program cannot
// change it.
const (
	// calibrationRef is the kernel's fastest run on the reference host,
	// a 2-vCPU Xeon virtual machine at 2.0 GHz.
	calibrationRef = 950 * time.Microsecond
	// calibrationEvery spaces the kernel's runs between requests.
	calibrationEvery = 20 * time.Millisecond
)

// calibrationCard is the kernel's record, shaped like an option card.
type calibrationCard struct {
	Option     int       `json:"option"`
	Name       string    `json:"name"`
	HACostUSD  float64   `json:"ha_cost_usd"`
	Uptime     float64   `json:"uptime_percent"`
	Techs      []string  `json:"techs"`
	Components []float64 `json:"components"`
}

var calibrationCards = func() []calibrationCard {
	out := make([]calibrationCard, 256)
	for i := range out {
		out[i] = calibrationCard{
			Option:     i + 1,
			Name:       fmt.Sprintf("option-%d", i+1),
			HACostUSD:  float64(i) * 1.37,
			Uptime:     99.9 - float64(i)/1000,
			Techs:      []string{"esx-ha", "none", "rhcs"},
			Components: []float64{1.5, 2.25, float64(i)},
		}
	}
	return out
}()

// calibration keeps the kernel's fastest run.
type calibration struct {
	mu   sync.Mutex
	last time.Time
	best time.Duration
}

// tick runs the kernel when calibrationEvery has passed since its last
// run. The load generator calls it between requests.
func (c *calibration) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.last) < calibrationEvery {
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runKernel()
		}()
	}
	wg.Wait()
	took := time.Since(start)
	c.last = time.Now()
	if c.best == 0 || took < c.best {
		c.best = took
	}
}

// runKernel makes one JSON round trip of the calibration cards.
func runKernel() {
	b, err := json.Marshal(calibrationCards)
	if err != nil {
		panic(fmt.Sprintf("perfbench: calibration kernel: %v", err))
	}
	var back []calibrationCard
	if err := json.Unmarshal(b, &back); err != nil || len(back) != len(calibrationCards) {
		panic(fmt.Sprintf("perfbench: calibration kernel: %v", err))
	}
}

// fastestRun is the kernel's fastest run so far; 0 before its first.
func (c *calibration) fastestRun() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.best
}

// scale is the factor that takes this run's times to the reference
// host: calibrationRef over the kernel's fastest run.
func (c *calibration) scale() float64 {
	return ratio(float64(calibrationRef), float64(c.fastestRun()))
}
