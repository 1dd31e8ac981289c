package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
	"exlengine/internal/workload"
)

// fullPanelDerived lists every derived cube of the full-panel catalog.
var fullPanelDerived = []string{"PQR", "RGDP", "GDP", "GDPT", "PCHNG", "A", "B", "C", "D"}

// fullPanelPrograms is the paper's §2 GDP program beside the panel chain.
var fullPanelPrograms = []program{{"gdp", workload.GDPProgram}, {"panel", panelProgram}}

// fullPanelRuns is how many runs one engine serves before it is rebuilt:
// one per dispatch mode. The store keeps every version, so an engine
// grows by the retained bytes of each run; rebuilding bounds the heap,
// and the rebuild is counted as set-up.
const fullPanelRuns = 5

// fullPanelExtraUploads is how many more fresh engines a sample uploads
// the inputs to, beside the one it sets up, before dropping them. An
// upload lasts tens of milliseconds, so one per sample gives too few
// upload times for a steady median.
const fullPanelExtraUploads = 2

// fullPanelInputs are the workload's generated inputs, as CSV uploads.
type fullPanelInputs struct {
	names []string
	csv   map[string][]byte
}

func genFullPanel(seed int64) (*fullPanelInputs, error) {
	data := workload.GDPSource(workload.GDPConfig{Days: panelDays, Regions: 20, Seed: seed})
	data["S"] = panelSource(seed, panelQuarters)
	in := &fullPanelInputs{csv: make(map[string][]byte)}
	for _, name := range sortedKeys(data) {
		b, err := csvBytes(data[name])
		if err != nil {
			return nil, err
		}
		in.names = append(in.names, name)
		in.csv[name] = b
	}
	return in, nil
}

// panelEngine is one engine instance of the in-process workloads.
type panelEngine struct {
	eng *engine.Engine
	st  *store.Store
	clk *clock
}

// bareEngine builds an engine on an in-memory store and registers the
// programs.
func bareEngine(progs []program) (*panelEngine, error) {
	st := store.New()
	pe := &panelEngine{eng: engine.New(engine.WithStore(st)), st: st, clk: newClock()}
	for _, p := range progs {
		if err := pe.eng.RegisterProgram(p.name, p.src); err != nil {
			return nil, err
		}
	}
	return pe, nil
}

// newPanelEngine builds a bare engine, uploads each input with load and
// makes one priming run.
func newPanelEngine(progs []program, load func(*panelEngine) error) (*panelEngine, error) {
	pe, err := bareEngine(progs)
	if err != nil {
		return nil, err
	}
	if err := load(pe); err != nil {
		return nil, err
	}
	if _, _, _, err := timedRun(pe.eng, runOpts("default", pe.clk.next())); err != nil {
		return nil, fmt.Errorf("priming run: %w", err)
	}
	return pe, nil
}

// loadCSVs uploads the inputs through Engine.LoadCSV. puts receives one
// sample per engine, the mean upload time of the two 100k-row cubes:
// PDR's and S's times differ, and a median over both kinds would fall
// between them and jump from one to the other. A collection runs before
// each of the two, as before every timed panel operation.
func loadCSVs(in *fullPanelInputs, puts *[]float64) func(*panelEngine) error {
	return func(pe *panelEngine) error {
		at := pe.clk.next()
		var total, n float64
		for _, name := range in.names {
			large := name == "PDR" || name == "S"
			if large {
				settle()
			}
			start := time.Now()
			if err := pe.eng.LoadCSV(name, bytes.NewReader(in.csv[name]), at); err != nil {
				return fmt.Errorf("loading %s: %w", name, err)
			}
			if large {
				total += since(start)
				n++
			}
		}
		if puts != nil {
			*puts = append(*puts, total/n)
		}
		return nil
	}
}

// uploadOnly uploads the inputs to a bare engine, for the upload times
// alone.
func uploadOnly(in *fullPanelInputs, puts *[]float64) error {
	pe, err := bareEngine(fullPanelPrograms)
	if err != nil {
		return err
	}
	return loadCSVs(in, puts)(pe)
}

// versions counts the versions the store retains across all cubes.
func versions(st interface{ Versions(string) []time.Time }, names []string) float64 {
	var n int
	for _, name := range names {
		n += len(st.Versions(name))
	}
	return float64(n)
}

func runFullPanel(cfg config) (*outcome, error) {
	out := newOutcome()
	genStart := time.Now()
	in, err := genFullPanel(cfg.seed)
	if err != nil {
		return nil, err
	}
	gen := since(genStart)
	out.notes["inputs"] = fmt.Sprintf("PDR %d days x 20 regions, RGDPPC, S %d quarters x %d regions; uploaded as CSV", panelDays, panelQuarters, panelRegions)
	out.notes["runs_per_engine"] = fullPanelRuns
	if cfg.trace {
		return traceFullPanel(cfg, in, out)
	}

	sm := newSamples()
	var timed float64
	for sample := 0; sample < heavySamples(cfg.seconds); sample++ {
		for i := 0; i < fullPanelExtraUploads; i++ {
			if err := uploadOnly(in, &sm.puts); err != nil {
				return nil, err
			}
		}
		settle() // collect the previous engine before timing the next set-up
		setupStart := time.Now()
		pe, err := newPanelEngine(fullPanelPrograms, loadCSVs(in, &sm.puts))
		if err != nil {
			return nil, err
		}
		sm.setup = append(sm.setup, since(setupStart))

		heap0 := liveHeap()
		var alloc float64
		outputs := make(map[string]map[string]*model.Cube)
		for _, mode := range modes {
			out.attempted++
			settle()
			_, d, a, err := timedRun(pe.eng, runOpts(mode, pe.clk.next()))
			if err != nil {
				out.fail("%s run: %v", mode, err)
				continue
			}
			sm.runs[mode] = append(sm.runs[mode], d)
			timed += d
			sm.done++
			alloc += a
			outputs[mode] = snapshotOf(pe.eng, fullPanelDerived)

			getStart := time.Now()
			if err := pe.eng.WriteCSV("D", io.Discard); err != nil {
				out.fail("%s read of D: %v", mode, err)
				continue
			}
			sm.gets = append(sm.gets, since(getStart))
		}
		sm.alloc = append(sm.alloc, alloc/fullPanelRuns)
		sm.retained = append(sm.retained, (liveHeap()-heap0)/fullPanelRuns)
		runtime.KeepAlive(pe) // the engine must stay live through the measurement
		sIn, _ := pe.eng.Cube("S")
		checkFullPanel(out, sIn, outputs)
	}
	sm.window = timed
	sm.gen = gen
	sm.report(out)
	return out, nil
}

// checkFullPanel compares every mode's derived cubes with the chase's,
// within the cross-check tolerance, and the chase's panel chain with
// its direct evaluation.
func checkFullPanel(out *outcome, s *model.Cube, outputs map[string]map[string]*model.Cube) {
	ref := outputs["chase"]
	if ref == nil {
		return // the chase run failed and is already counted
	}
	if err := checkPanel(s, func(n string) (*model.Cube, bool) { c, ok := ref[n]; return c, ok }); err != nil {
		out.fail("chase panel chain: %v", err)
	}
	for _, mode := range modes {
		if mode == "chase" || outputs[mode] == nil {
			continue
		}
		if err := sameCubes(fullPanelDerived, outputs[mode], ref, 1e-6); err != nil {
			out.fail("%s output differs from the chase: %v", mode, err)
		}
	}
}

// traceFullPanel replays each mode's run layer by layer, alternating
// with untraced Engine.Runs on a fresh engine, then makes one obs-traced
// run.
func traceFullPanel(cfg config, in *fullPanelInputs, out *outcome) (*outcome, error) {
	tl := newTraceLog()
	catL := newLayers()
	cat, err := compileCatalog(catL, fullPanelPrograms)
	if err != nil {
		return nil, err
	}
	tl.all.merge(catL)
	gc0, cpu0 := cpuClock()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		for _, mode := range modes {
			pe, err := newPanelEngine(fullPanelPrograms, loadCSVs(in, nil))
			if err != nil {
				return nil, err
			}
			// The replay store shares the engine's frozen inputs, so both
			// runs read the same cubes; the uploads' CSV parse is timed on
			// the side.
			l := newLayers()
			for _, name := range in.names {
				sch, _ := pe.eng.Schema(name)
				if err := l.timed("store.csv_read_s", func() error {
					_, err := store.ReadCSV(bytes.NewReader(in.csv[name]), sch)
					return err
				}); err != nil {
					return nil, err
				}
			}
			rs := store.New()
			rp := newReplayer(l, cat, rs, "store.put_s", false)
			if err := rp.declare(); err != nil {
				return nil, err
			}
			at := pe.clk.next()
			for _, name := range in.names {
				c, _ := pe.eng.Cube(name)
				if err := l.timed("store.put_s", func() error { return rs.Put(c, at) }); err != nil {
					return nil, err
				}
			}

			for pair := 0; pair < tracePairs; pair++ {
				out.attempted++
				settle()
				rep, d, _, err := timedRun(pe.eng, runOpts(mode, pe.clk.next()))
				if err != nil {
					out.fail("%s run: %v", mode, err)
					continue
				}
				tl.untraced[mode] = append(tl.untraced[mode], d)
				reportCounts(l, rep)
				engineOut := snapshotOf(pe.eng, fullPanelDerived)

				runL := newLayers()
				rp.l = runL
				settle()
				got, rr, err := rp.run(ctxBG, mode, nil, false, pe.clk.next())
				if err != nil {
					out.fail("%s replay: %v", mode, err)
					continue
				}
				tl.sameDecisions(mode, rep, rr)
				tl.replayed(mode, runL, rr, len(cat.graph.Derived()))
				l.merge(runL)
				if err := sameCubes(fullPanelDerived, got, engineOut, 0); err != nil {
					out.fail("%s replay differs from Engine.Run: %v", mode, err)
				}
				l.timed("store.csv_write_s", func() error {
					c, _ := rs.Get("D")
					return store.WriteCSV(io.Discard, c)
				})
			}

			tr := obs.NewTracer()
			settle()
			_, td, _, err := timedRun(pe.eng, runOpts(mode, pe.clk.next(), engine.RunTraced(tr)))
			if err != nil {
				out.fail("%s traced run: %v", mode, err)
				continue
			}
			tl.traced[mode] = append(tl.traced[mode], td)
			tl.spans(tr)
			tl.bytesPerTuple(snapshotOf(pe.eng, fullPanelDerived))
			tl.heap = append(tl.heap, liveHeap())
			tl.versions = append(tl.versions, versions(pe.st, pe.st.Names()))
			tl.all.merge(l)
		}
		tl.passes += tracePairs
		tl.tracedPasses++
	}
	tl.runtime(gc0, cpu0)
	tl.report(out)
	return out, nil
}
