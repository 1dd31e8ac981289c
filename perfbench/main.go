// Command perfbench is the repository benchmark. It runs one workload
// from a seed for a fixed measuring time, checks every output the
// program produces, and prints one JSON result line:
//
//	perfbench --workload full-panel --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics: the
// benchmark replays the same operations by calling each module's public
// functions in dispatch's order, timing every call from its own code,
// and cross-checks the replay against Engine.Run (same cubes, layer
// times summing to the untraced run time) and against the program's own
// obs spans and /v1/metrics counters.
//
// Before the result line, one {"record": …} line gives the provenance
// (Go version, platform, CPU, GOMAXPROCS, GOGC, commit, seed, durable
// flush policy) and the sample count behind every figure.
//
// Workloads (BENCHMARK.json gives the reasons):
//
//	full-panel          full runs at 100k rows, default dispatch and forced onto each target
//	revise-incremental  1% revisions of a 50k-row panel, incremental runs on every dispatch mode
//	served-catalog      two closed-loop HTTP clients against two durable tenants
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload hands back: its metrics, the sample count
// behind each, the operations it attempted and the ones that failed or
// produced a wrong output, and free-form notes for the record.
type outcome struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		metrics: make(map[string]metric),
		samples: make(map[string]int),
		notes:   make(map[string]any),
	}
}

func (o *outcome) set(name, unit string, v float64, n int) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	o.samples[name] = n
}

// fail records one failed or wrong operation; the run then exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"full-panel":         runFullPanel,
	"revise-incremental": runReviseIncremental,
	"served-catalog":     runServedCatalog,
}

func main() {
	name := flag.String("workload", "", "workload to run: full-panel, revise-incremental or served-catalog")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if out.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", *name)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, p)
	}

	record := map[string]any{
		"workload":    *name,
		"seed":        cfg.seed,
		"seconds":     *seconds,
		"trace":       cfg.trace,
		"environment": environment(),
		"peak_rss":    peakRSS(),
		"samples":     out.samples,
		"notes":       out.notes,
		"problems":    out.problems,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
		os.Exit(1)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
