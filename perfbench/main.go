// Command perfbench is the service benchmark: it drives a brokerd
// built from cmd/brokerd over loopback HTTP with one of three client
// workloads, checks every response, and prints the end-to-end metrics
// (-trace 0) or, from a separate traced in-process replay of the same
// requests, the per-layer metrics (-trace 1). The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}}}
//
// Run it through run.sh, which builds brokerd and this program first:
//
//	bash perfbench/run.sh --workload recommend-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runLimit bounds a whole invocation, build excluded.
const runLimit = 150 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, value float64, unit string) {
	if value != value { // NaN: no samples
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	bin      string
	dir      string // this run's scratch directory
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "recommend-cold, recommend-hot or frontier-wide")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	bin := fs.String("brokerd", "", "path to the brokerd binary")
	workdir := fs.String("workdir", "", "directory for logs, the traced run's job store and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *bin == "" || *workdir == "" {
		return errors.New("-brokerd and -workdir are required")
	}
	if *seconds < 1 || *seconds > 60 {
		return errors.New("-seconds must be between 1 and 60")
	}
	// The load generator is one process of at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := config{
		workload: *workload,
		seed:     *seed,
		run:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		bin:      *bin,
		dir:      filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, os.Getpid())),
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return fmt.Errorf("create run directory: %w", err)
	}
	// A run that cannot finish in time fails instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var rep report
	var host hostInfo
	var err error
	if cfg.trace {
		rep, host, err = tracedRun(ctx, cfg, w)
	} else {
		rep, host, err = measuredRun(ctx, cfg, w)
	}
	// The traced run's job store is only needed while the run lasts.
	_ = os.RemoveAll(filepath.Join(cfg.dir, "jobs"))
	if err != nil {
		return err
	}
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.dir, "host.json"), hostLine, 0o644); err != nil {
		return fmt.Errorf("record host: %w", err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)
	fmt.Printf("%s\n", line)
	return nil
}

// hostInfo is recorded with every run, so numbers from different hosts
// are never compared.
type hostInfo struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        bool     `json:"trace"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	BrokerdGo    string   `json:"brokerd_go_version,omitempty"`
	BrokerdFlags []string `json:"brokerd_flags"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
}

func newHostInfo(cfg config, flags []string) hostInfo {
	return hostInfo{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		BrokerdFlags: flags,
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
	}
}

// logErrors prints the first few failures to standard error.
func logErrors(results []result) {
	shown := 0
	for _, r := range results {
		if r.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", r.op.Kind, r.op.path(), r.err)
			shown++
		}
	}
}

// observations returns the posted observations in posting order.
func observations(results []result) []op {
	var out []op
	for _, r := range results {
		if r.op.Kind == kindObserve {
			out = append(out, r.op)
		}
	}
	return out
}
