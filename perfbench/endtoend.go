package main

import (
	"math"
	"time"
)

// heavySamples is how many samples full-panel, a workload of 100k-row
// runs, takes in the measuring time d: one per 6 seconds, about what a sample of five
// runs with its engine rebuild and checks lasts, and never fewer than 5,
// so that no median rests on fewer. A count fixed by d keeps every
// run's medians over the same number of samples.
func heavySamples(d time.Duration) int { return int(math.Max(5, math.Round(d.Seconds()/6))) }

// Dispatch modes every workload samples: the program's own per-statement
// targets, then every statement forced onto one target.
var modes = []string{"default", "sql", "chase", "etl", "frame"}

// samples collects the end-to-end figures of one untraced run. Times
// are in seconds, per operation; the byte figures are per run.
type samples struct {
	gen      float64              // input generation, once per run
	setup    []float64            // one per engine (or server) set-up, after generation
	runs     map[string][]float64 // dispatch mode -> run times
	puts     []float64            // cube uploads
	gets     []float64            // derived-cube reads
	alloc    []float64            // heap bytes allocated per run, one entry per measured stretch
	retained []float64            // live-heap growth per run, one entry per measured stretch
	done     int                  // operations completed in the throughput window
	window   float64              // seconds of the throughput window
}

func newSamples() *samples { return &samples{runs: make(map[string][]float64)} }

// report writes every end-to-end metric of BENCHMARK.json into out.
func (s *samples) report(out *outcome) {
	def := s.runs["default"]
	out.set("setup_s", "s", s.gen+median(s.setup), len(s.setup))
	out.set("run_p50_s", "s", median(def), len(def))
	out.set("run_p90_s", "s", quantile(def, 0.9), len(def))
	for _, m := range modes[1:] {
		out.set("run_s."+m, "s", median(s.runs[m]), len(s.runs[m]))
	}
	out.set("put_p50_s", "s", median(s.puts), len(s.puts))
	out.set("get_p50_s", "s", median(s.gets), len(s.gets))
	rate := 0.0
	if s.window > 0 {
		rate = float64(s.done) / s.window
	}
	out.set("runs_per_s", "1/s", rate, s.done)
	out.set("alloc_bytes_per_run", "bytes", median(s.alloc), len(s.alloc))
	out.set("retained_bytes_per_run", "bytes", median(s.retained), len(s.retained))
	out.notes["run_p99_s (information only)"] = quantile(def, 0.99)
	out.notes["setup_s_samples"] = s.setup
	if len(def) <= 50 {
		out.notes["run_s_samples"] = s.runs
	}
}
