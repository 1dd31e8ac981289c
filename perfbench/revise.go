package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
)

var revisePrograms = []program{{"panel", panelProgram}}

// reviseEngines splits one round's revision cycles over two engines,
// each built (set-up) before the four cycles it serves. Every cycle adds
// a version of S and of each derived cube to the store, so four cycles
// bound the heap. Each engine starts with a chase cycle: it is the
// shortest and most variable, so a round takes two of it. Default
// dispatch, which gives run_p50_s and run_p90_s, takes three.
var reviseEngines = [][]string{{"chase", "default", "sql", "default"}, {"chase", "default", "etl", "frame"}}

// reviseMinRounds is the fewest rounds a run makes, however short its
// measuring time.
const reviseMinRounds = 3

// putCube returns a loader that stores c as the engine's S.
func putCube(c *model.Cube) func(*panelEngine) error {
	return func(pe *panelEngine) error { return pe.eng.PutCube(c, pe.clk.next()) }
}

func runReviseIncremental(cfg config) (*outcome, error) {
	out := newOutcome()
	genStart := time.Now()
	cur := panelSource(cfg.seed, reviseQuarters).Freeze()
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	gen := since(genStart)
	out.notes["inputs"] = fmt.Sprintf("S %d quarters x %d regions; each cycle revises %.0f%% of its points", reviseQuarters, panelRegions, reviseShare*100)
	out.notes["cycles_per_engine"] = reviseEngines
	out.notes["reference"] = "every cycle: the chain evaluated directly, bit for bit; once per run: a full chase solve of the first revision"
	if cfg.trace {
		return traceRevise(cfg, cur, rng, out)
	}

	sm := newSamples()
	reasons := make(map[string]int)
	counts := newLayers()
	var timed float64
	checkedChase := false
	// Rounds run until the measuring time is over, so that every mode's
	// cycles are spread over the whole run: the host's speed drifts by
	// a fifth within seconds, and a median of cycles bunched into part
	// of the run follows that drift.
	deadline := time.Now().Add(cfg.seconds)
	for round := 0; round < reviseMinRounds || time.Now().Before(deadline); round++ {
		var alloc, retained, cycles float64
		for _, engineModes := range reviseEngines {
			settle() // collect the previous engine before timing the next set-up
			setupStart := time.Now()
			pe, err := newPanelEngine(revisePrograms, putCube(cur))
			if err != nil {
				return nil, err
			}
			sm.setup = append(sm.setup, since(setupStart))

			heap0 := liveHeap()
			for _, mode := range engineModes {
				rev := revise(cur, rng)
				out.attempted++
				rep, put, d, a, err := reviseCycle(pe, rev, mode)
				alloc += a
				if err != nil {
					out.fail("%s cycle: %v", mode, err)
					continue
				}
				sm.puts = append(sm.puts, put)
				sm.runs[mode] = append(sm.runs[mode], d)
				timed += d
				sm.done++
				reportCounts(counts, rep)
				fallbackReasons(reasons, rep)

				getStart := time.Now()
				if err := pe.eng.WriteCSV("D", io.Discard); err != nil {
					out.fail("%s read of D: %v", mode, err)
					continue
				}
				sm.gets = append(sm.gets, since(getStart))

				if !rep.Incremental {
					out.fail("%s cycle did not run incrementally", mode)
				}
				if err := checkPanel(rev, pe.eng.Cube); err != nil {
					out.fail("%s cycle output: %v", mode, err)
				}
				if !checkedChase {
					checkedChase = true
					if err := checkChase(pe.eng, rev); err != nil {
						out.fail("%s cycle against a full chase: %v", mode, err)
					}
				}
				cur, _ = pe.eng.Cube("S")
			}
			retained += liveHeap() - heap0
			cycles += float64(len(engineModes))
			runtime.KeepAlive(pe) // the engine must stay live through the measurement
		}
		sm.alloc = append(sm.alloc, alloc/cycles)
		sm.retained = append(sm.retained, retained/cycles)
	}
	sm.window = timed
	sm.gen = gen
	sm.report(out)
	if n := counts.counts["dispatch.incr_fragments"]; n > 0 {
		out.notes["incr_fellback_share"] = counts.counts["dispatch.incr_fellback"] / n
	}
	out.notes["incremental_fallback_reasons"] = reasons
	return out, nil
}

// reviseCycle uploads a revision of S and runs the engine incrementally
// in the given mode. It returns the report, the upload time, the whole
// cycle's time and the heap bytes the cycle allocated.
func reviseCycle(pe *panelEngine, rev *model.Cube, mode string,
	extra ...engine.RunOption) (*engine.Report, float64, float64, float64, error) {

	settle()
	a0 := totalAlloc()
	start := time.Now()
	if err := pe.eng.PutCube(rev, pe.clk.next()); err != nil {
		return nil, 0, 0, 0, err
	}
	put := since(start)
	opts := runOpts(mode, pe.clk.next(), append(extra, engine.WithIncremental())...)
	rep, err := pe.eng.Run(context.Background(), opts...)
	return rep, put, since(start), totalAlloc() - a0, err
}

// checkChase compares the engine's derived cubes with a full chase solve
// of the same revision, exactly.
func checkChase(eng *engine.Engine, rev *model.Cube) error {
	m, ok := eng.Mapping("panel")
	if !ok {
		return fmt.Errorf("no panel mapping")
	}
	sol, err := chase.New(m).Solve(chase.Instance{"S": rev})
	if err != nil {
		return err
	}
	return sameCubes(panelDerived, snapshotOf(eng, panelDerived), sol, 0)
}

// traceRevise replays each mode's revision cycles layer by layer against
// a replay store that mirrors a fresh, primed engine, alternating with
// the engine's untraced cycles, then makes one obs-traced cycle.
func traceRevise(cfg config, cur *model.Cube, rng *rand.Rand, out *outcome) (*outcome, error) {
	tl := newTraceLog()
	catL := newLayers()
	cat, err := compileCatalog(catL, revisePrograms)
	if err != nil {
		return nil, err
	}
	tl.all.merge(catL)
	gc0, cpu0 := cpuClock()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		for _, mode := range modes {
			pe, err := newPanelEngine(revisePrograms, putCube(cur))
			if err != nil {
				return nil, err
			}
			// Mirror the primed engine: the same frozen cubes, written in
			// the same order, so generations and memos line up.
			l := newLayers()
			rs := store.New()
			rp := newReplayer(l, cat, rs, "store.put_s", false)
			if err := rp.declare(); err != nil {
				return nil, err
			}
			s, _ := pe.eng.Cube("S")
			if err := rs.Put(s, pe.clk.next()); err != nil {
				return nil, err
			}
			if _, err := rs.PutAllGen(snapshotOf(pe.eng, panelDerived), pe.clk.next()); err != nil {
				return nil, err
			}
			_, _, gens := rs.SnapshotWithGenerations()
			rp.updateMemos(cat.graph.FullPlan(), gens, gens["A"], snapshotOf(pe.eng, panelDerived))

			for pair := 0; pair < tracePairs; pair++ {
				cur, _ = pe.eng.Cube("S")
				rev := revise(cur, rng)
				out.attempted++
				rep, _, d, _, err := reviseCycle(pe, rev, mode)
				if err != nil {
					out.fail("%s cycle: %v", mode, err)
					continue
				}
				tl.untraced[mode] = append(tl.untraced[mode], d)
				reportCounts(l, rep)
				engineOut := snapshotOf(pe.eng, panelDerived)

				runL := newLayers()
				rp.l = runL
				settle()
				if err := runL.timed("store.put_s", func() error { return rs.Put(rev, pe.clk.next()) }); err != nil {
					return nil, err
				}
				got, rr, err := rp.run(ctxBG, mode, nil, true, pe.clk.next())
				if err != nil {
					out.fail("%s replay: %v", mode, err)
					continue
				}
				tl.sameDecisions(mode, rep, rr)
				tl.replayed(mode, runL, rr, len(panelDerived))
				l.merge(runL)
				if err := sameCubes(panelDerived, got, engineOut, 0); err != nil {
					out.fail("%s replay differs from Engine.Run: %v", mode, err)
				}
				if err := checkPanel(rev, pe.eng.Cube); err != nil {
					out.fail("%s cycle output: %v", mode, err)
				}
				l.timed("store.csv_write_s", func() error {
					c, _ := rs.Get("D")
					return store.WriteCSV(io.Discard, c)
				})
			}

			cur, _ = pe.eng.Cube("S")
			tr := obs.NewTracer()
			_, _, d, _, err := reviseCycle(pe, revise(cur, rng), mode, engine.RunTraced(tr))
			if err != nil {
				out.fail("%s traced cycle: %v", mode, err)
				continue
			}
			tl.traced[mode] = append(tl.traced[mode], d)
			tl.spans(tr)
			tl.bytesPerTuple(snapshotOf(pe.eng, panelDerived))
			tl.heap = append(tl.heap, liveHeap())
			tl.versions = append(tl.versions, versions(pe.st, pe.st.Names()))
			tl.all.merge(l)
			cur, _ = pe.eng.Cube("S")
		}
		tl.passes += tracePairs
		tl.tracedPasses++
	}
	tl.runtime(gc0, cpu0)
	tl.report(out)
	return out, nil
}
