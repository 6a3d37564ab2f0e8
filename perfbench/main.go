// Command perfbench is the vGPRS simulator's benchmark. It runs one named
// workload in a closed loop for a wall-clock budget, checks the simulator's
// outputs on every op, and prints every metric by name with its unit. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
// for an untraced run, the per-layer metrics for a traced one.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload register-small --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload name: register-small, resident-full or talk-sharded")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds the timed loop runs for")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	cfg, err := defaultConfig(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.Seconds = *seconds
	cfg.Trace = *trace == 1
	if cfg.Trace {
		cfg.SpanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, cfg, res)
	line, err := json.Marshal(finalLine(cfg, res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// machine describes the host a result was measured on.
type machine struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// commit is the source revision, set at link time by run.py
// (-ldflags "-X main.commit=...").
var commit = "unknown"

func thisMachine() machine {
	return machine{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}
