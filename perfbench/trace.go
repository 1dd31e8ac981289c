package main

import (
	"context"
	"fmt"
	"math"

	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
)

var ctxBG = context.Background()

// tracePairs is how many untraced runs and replays alternate per mode on
// one engine in the in-process traced runs, so the layer sums are
// compared with more than one sample.
const tracePairs = 2

// replayTolerance is how far, as a share of the untraced median, the
// replayed layer times may sum from it before the traced run counts the
// replay as a failure: the replay must measure the same program. The
// workload's total over every mode is always held to it; a single mode
// is held to it once it has modeSamples untraced runs and as many
// replays. Single panel runs of one mode on one engine spread by a
// tenth or more on a 2-vCPU virtual machine, so the two to six a traced
// run takes per mode cannot tell a tenth apart from noise; their shares
// are reported per mode.
const (
	replayTolerance = 0.1
	modeSamples     = 20
)

// perLayer lists the per-layer metrics of BENCHMARK.json with their
// units. Times and counts are per pass: one run in each dispatch mode
// (full-panel), one revision cycle in each mode (revise-incremental) or
// one in-process revision cycle in each mode (served-catalog). A layer a
// workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"exl.compile_s", "s"},
	{"mapping.generate_s", "s"},
	{"determine.graph_s", "s"},
	{"determine.plan_s", "s"},
	{"governor.admit_s", "s"},
	{"determine.plan_share", "ratio"},
	{"sqlgen.translate_s", "s"},
	{"etl.translate_s", "s"},
	{"frame.translate_s", "s"},
	{"sqlengine.load_s", "s"},
	{"sqlengine.exec_s", "s"},
	{"sqlengine.extract_s", "s"},
	{"sqlengine.rows_loaded", "count"},
	{"sqlengine.rows_extracted", "count"},
	{"chase.solve_s", "s"},
	{"chase.incr_solve_s", "s"},
	{"etl.run_s", "s"},
	{"frame.exec_s", "s"},
	{"model.diff_s", "s"},
	{"model.estimate_s", "s"},
	{"model.bytes_per_tuple", "bytes"},
	{"dispatch.fragments", "count"},
	{"dispatch.fallbacks", "count"},
	{"dispatch.incr_fellback_share", "ratio"},
	{"dispatch.bookkeeping_s", "s"},
	{"dispatch.unattributed_s", "s"},
	{"store.snapshot_s", "s"},
	{"store.put_s", "s"},
	{"store.delta_s", "s"},
	{"store.versions_retained", "count"},
	{"store.csv_read_s", "s"},
	{"store.csv_write_s", "s"},
	{"durable.commit_s", "s"},
	{"durable.fsyncs_per_commit", "ratio"},
	{"durable.wal_bytes_per_user_byte", "ratio"},
	{"durable.compactions", "count"},
	{"governor.queue_wait_s", "s"},
	{"governor.shed", "count"},
	{"server.overhead_s", "s"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.live_heap_bytes", "bytes"},
	{"obs.tracing_overhead_share", "ratio"},
	{"obs.attempt_span_s", "s"},
	{"obs.persist_span_s", "s"},
	{"replay.layer_share", "ratio"},
	{"fail_ratio", "ratio"},
}

// traceLog gathers what a traced run measures: replayed layer times,
// the untraced and obs-traced Engine.Run times they are checked against,
// and the figures only the program itself can give.
type traceLog struct {
	all          *layers
	passes       int // replayed passes
	tracedPasses int // passes with an obs-traced run
	versions     []float64
	untraced     map[string][]float64 // mode -> untraced Engine.Run seconds
	traced       map[string][]float64 // mode -> obs-traced Engine.Run seconds
	replaySums   map[string][]float64 // mode -> summed layer seconds of one replayed run
	spanSecs     map[string]float64   // obs span name -> summed seconds
	planShare    []float64
	bpt          []float64
	heap         []float64      // live heap bytes, sampled while an engine is loaded
	reasons      map[string]int // replayed incremental fallback reasons
	mismatch     []string       // dispatch decisions the replay made differently from Engine.Run
	vals         map[string]float64
}

func newTraceLog() *traceLog {
	return &traceLog{
		all:        newLayers(),
		untraced:   make(map[string][]float64),
		traced:     make(map[string][]float64),
		replaySums: make(map[string][]float64),
		spanSecs:   make(map[string]float64),
		reasons:    make(map[string]int),
		vals:       make(map[string]float64),
	}
}

// replayed records one replayed run of the given mode.
func (t *traceLog) replayed(mode string, runL *layers, rr replayRun, derived int) {
	t.replaySums[mode] = append(t.replaySums[mode], runL.total())
	t.planShare = append(t.planShare, float64(rr.planned)/float64(derived))
	for r, n := range rr.reasons {
		t.reasons[mode+": "+r] += n
	}
}

// sameDecisions compares the replay's dispatch decisions with the
// engine's report of the run it mirrors.
func (t *traceLog) sameDecisions(mode string, rep *engine.Report, rr replayRun) {
	fellBack := 0
	for _, f := range rep.Fragments {
		if f.FellBackFull {
			fellBack++
		}
	}
	if rr.fragments != len(rep.Fragments) || rr.fallbacks != rep.Fallbacks || rr.fellBack != fellBack {
		t.mismatch = append(t.mismatch, fmt.Sprintf("%s: replay %d fragments, %d fallbacks, %d full recomputes; engine %d, %d, %d",
			mode, rr.fragments, rr.fallbacks, rr.fellBack, len(rep.Fragments), rep.Fallbacks, fellBack))
	}
}

// spans adds the obs span durations of a traced run.
func (t *traceLog) spans(tr *obs.Tracer) {
	for name, s := range spanTotals(tr) {
		t.spanSecs[name] += s
	}
}

// bytesPerTuple samples the memory estimate per tuple of the cubes.
func (t *traceLog) bytesPerTuple(cubes map[string]*model.Cube) {
	var bytes, tuples float64
	for _, c := range cubes {
		bytes += float64(c.MemEstimate())
		tuples += float64(c.Len())
	}
	if tuples > 0 {
		t.bpt = append(t.bpt, bytes/tuples)
	}
}

// runtime records the GC share of CPU since (gc0, cpu0) and the median
// sampled live heap.
func (t *traceLog) runtime(gc0, cpu0 float64) {
	gc1, cpu1 := cpuClock()
	if cpu1 > cpu0 {
		t.vals["runtime.gc_cpu_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	t.vals["runtime.live_heap_bytes"] = median(t.heap)
}

// report writes every per-layer metric into out.
func (t *traceLog) report(out *outcome) {
	for _, m := range t.mismatch {
		out.fail("replay made other dispatch decisions than Engine.Run: %s", m)
	}
	passes := math.Max(1, float64(t.passes))
	traced := math.Max(1, float64(t.tracedPasses))
	var untracedSum, tracedSum, replayed float64
	shares := make(map[string]float64)
	for _, mode := range sortedKeys(t.untraced) {
		xs := t.untraced[mode]
		u, r := median(xs), median(t.replaySums[mode])
		untracedSum += u
		replayed += r
		if u > 0 {
			shares[mode] = r / u
			enough := len(xs) >= modeSamples && len(t.replaySums[mode]) >= modeSamples
			if enough && math.Abs(r/u-1) > replayTolerance {
				out.fail("%s: replayed layer times sum to %.3g s, not within a tenth of the untraced median %.3g s", mode, r, u)
			}
		}
		if tr := t.traced[mode]; len(tr) > 0 {
			tracedSum += median(tr)
		} else {
			tracedSum += u
		}
	}
	vals := map[string]float64{
		"determine.plan_share":    median(t.planShare),
		"model.bytes_per_tuple":   median(t.bpt),
		"dispatch.unattributed_s": untracedSum - replayed,
		"obs.attempt_span_s":      t.spanSecs["attempt"] / traced,
		"obs.persist_span_s":      t.spanSecs["persist"] / traced,
		"store.versions_retained": median(t.versions),
	}
	if n := t.all.counts["dispatch.incr_fragments"]; n > 0 {
		vals["dispatch.incr_fellback_share"] = t.all.counts["dispatch.incr_fellback"] / n
	}
	if untracedSum > 0 {
		vals["replay.layer_share"] = replayed / untracedSum
		if math.Abs(replayed/untracedSum-1) > replayTolerance {
			out.fail("replayed layer times sum to %.3g s over every mode, not within a tenth of the untraced medians' %.3g s", replayed, untracedSum)
		}
		vals["obs.tracing_overhead_share"] = tracedSum/untracedSum - 1
	}
	for k, v := range t.vals {
		vals[k] = v
	}
	vals["fail_ratio"] = float64(out.failed) / math.Max(1, float64(out.attempted))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			if s, isTime := t.all.secs[m.name]; isTime {
				v = s / passes
			} else {
				v = t.all.counts[m.name] / passes
			}
		}
		out.set(m.name, m.unit, v, t.passes)
	}
	out.notes["replay_share_by_mode"] = shares
	out.notes["untraced_median_s_by_mode"] = medians(t.untraced)
	out.notes["replay_layer_s_by_mode"] = medians(t.replaySums)
	if t.passes <= 20 {
		out.notes["untraced_s_samples"] = t.untraced
		out.notes["replay_layer_s_samples"] = t.replaySums
	}
	out.notes["obs_span_s_per_traced_pass"] = scaled(t.spanSecs, 1/traced)
	if len(t.reasons) > 0 {
		out.notes["incremental_fallback_reasons"] = t.reasons
	}
}

func medians(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, xs := range m {
		out[k] = median(xs)
	}
	return out
}

func scaled(m map[string]float64, f float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v * f
	}
	return out
}
