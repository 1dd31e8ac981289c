package main

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"time"

	"exlengine/internal/chase"
	"exlengine/internal/determine"
	"exlengine/internal/etl"
	"exlengine/internal/exl"
	"exlengine/internal/frame"
	"exlengine/internal/governor"
	"exlengine/internal/mapping"
	"exlengine/internal/model"
	"exlengine/internal/ops"
	"exlengine/internal/sqlengine"
	"exlengine/internal/sqlgen"
)

// layers accumulates the time spent inside each module's public
// functions, and the counts those calls produce, under the per-layer
// metric names of BENCHMARK.json.
type layers struct {
	secs   map[string]float64
	counts map[string]float64
}

func newLayers() *layers {
	return &layers{secs: make(map[string]float64), counts: make(map[string]float64)}
}

// timed runs fn and charges its wall time to the named layer.
func (l *layers) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.secs[name] += since(start)
	return err
}

func (l *layers) add(name string, v float64) { l.counts[name] += v }

// total is the summed time of every layer.
func (l *layers) total() float64 {
	var t float64
	for _, s := range l.secs {
		t += s
	}
	return t
}

func (l *layers) merge(o *layers) {
	for k, v := range o.secs {
		l.secs[k] += v
	}
	for k, v := range o.counts {
		l.counts[k] += v
	}
}

// program is one EXL program of a workload's catalog.
type program struct{ name, src string }

// catalog is a workload's programs compiled the way the engine compiles
// them at registration: parse and analyze, generate the mapping, build
// the determination graph.
type catalog struct {
	mappings []*mapping.Mapping // in program-name order, as the engine keeps them
	graph    *determine.Graph
}

// compileCatalog compiles the programs in registration order, the way
// the engine registers them: each is analyzed against the schemas of
// every cube declared before it. It charges exl.Parse plus exl.Analyze
// to exl.compile_s and mapping.Generate to mapping.generate_s.
func compileCatalog(l *layers, progs []program) (*catalog, error) {
	c := &catalog{}
	analyzed := make(map[string]*exl.Analyzed, len(progs))
	byName := make(map[string]*mapping.Mapping, len(progs))
	external := make(map[string]model.Schema)
	for _, p := range progs {
		var a *exl.Analyzed
		err := l.timed("exl.compile_s", func() error {
			prog, err := exl.Parse(p.src)
			if err != nil {
				return err
			}
			a, err = exl.Analyze(prog, maps.Clone(external))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.name, err)
		}
		var m *mapping.Mapping
		if err := l.timed("mapping.generate_s", func() (err error) {
			m, err = mapping.Generate(a)
			return err
		}); err != nil {
			return nil, fmt.Errorf("generating mapping of %s: %w", p.name, err)
		}
		analyzed[p.name] = a
		byName[p.name] = m
		for n, sch := range a.Schemas {
			external[n] = sch
		}
	}
	for _, name := range sortedKeys(byName) {
		c.mappings = append(c.mappings, byName[name])
	}
	if err := l.timed("determine.graph_s", func() (err error) {
		c.graph, err = determine.Build(analyzed)
		return err
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// schemas merges the graph's cube schemas with the auxiliary relation
// schemas of every mapping. The engine does this at the start of every
// run, and so does the replay.
func (c *catalog) schemas() map[string]model.Schema {
	out := make(map[string]model.Schema)
	for n, sch := range c.graph.Schemas() {
		out[n] = sch
	}
	for _, m := range c.mappings {
		for n, sch := range m.Schemas {
			if _, ok := out[n]; !ok {
				out[n] = sch
			}
		}
	}
	return out
}

// tgds returns the tgds of the statement defining cube, auxiliaries
// included, in stratification order.
func (c *catalog) tgds(cube string) []*mapping.Tgd {
	for _, m := range c.mappings {
		var out []*mapping.Tgd
		for _, t := range m.Tgds {
			if t.Stmt == cube {
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// replayStore is what the replay needs of a cube store; the in-memory
// store and the durable store both provide it.
type replayStore interface {
	Declare(sch model.Schema) error
	Put(c *model.Cube, asOf time.Time) error
	Get(name string) (*model.Cube, bool)
	PutAllGen(cubes map[string]*model.Cube, asOf time.Time) (uint64, error)
	SnapshotWithGenerations() (map[string]*model.Cube, uint64, map[string]uint64)
	Delta(name string, sinceGen uint64) (*model.CubeDelta, error)
}

// replayer re-executes Engine.Run step by step through the modules'
// public functions, in the order the engine and the dispatcher call
// them, timing each call. It keeps its own memo of input generations
// for incremental runs, exactly as the engine does.
type replayer struct {
	l        *layers
	cat      *catalog
	st       replayStore
	putLayer string // store.put_s for the memory store, durable.commit_s for the durable one
	parallel bool   // partition by component, as engines with parallel dispatch do
	gov      *governor.Governor
	memo     map[string]replayMemo
}

type replayMemo struct {
	self   uint64
	inputs map[string]uint64
}

// replayRun describes one replayed run.
type replayRun struct {
	planned   int
	fragments int
	fallbacks int
	fellBack  int // fragments under an incremental plan recomputed in full
	reasons   map[string]int
}

func newReplayer(l *layers, cat *catalog, st replayStore, putLayer string, parallel bool) *replayer {
	// An engine built without governor options gets this governor.
	gov := governor.New(governor.Config{Breaker: governor.BreakerConfig{FailureThreshold: -1}})
	return &replayer{l: l, cat: cat, st: st, putLayer: putLayer, parallel: parallel, gov: gov,
		memo: make(map[string]replayMemo)}
}

// declare registers every catalog schema with the replay store.
func (r *replayer) declare() error {
	for _, name := range sortedKeys(r.cat.graph.Schemas()) {
		sch := r.cat.graph.Schemas()[name]
		if err := r.st.Declare(sch.Rename(name)); err != nil {
			return err
		}
	}
	return nil
}

// assigner maps a dispatch mode to the engine's target assigner.
func assigner(mode string) determine.Assigner {
	if mode == "default" {
		return determine.AssignByPreference
	}
	return determine.FixedAssigner(ops.Target(mode))
}

// run replays Engine.Run: determination, (for incremental runs) the
// staleness walk and store deltas, partitioning, fragment execution with
// fallback, and the atomic persist. It returns the cubes it computed.
func (r *replayer) run(ctx context.Context, mode string, changed []string, incremental bool,
	asOf time.Time) (map[string]*model.Cube, replayRun, error) {

	// Whatever the run spends outside the timed module calls is the
	// dispatcher's own bookkeeping, replayed here: building fragments,
	// copying the working set, the staleness walk and the memo updates.
	start, timed := time.Now(), r.l.total()
	defer func() { r.l.secs["dispatch.bookkeeping_s"] += since(start) - (r.l.total() - timed) }()

	rr := replayRun{reasons: make(map[string]int)}
	schemas := r.cat.schemas()
	var ticket *governor.Ticket
	if err := r.l.timed("governor.admit_s", func() (err error) {
		ticket, err = r.gov.Admit(ctx, 1)
		return err
	}); err != nil {
		return nil, rr, err
	}
	defer ticket.Release()
	var plan []determine.StmtRef
	if err := r.l.timed("determine.plan_s", func() (err error) {
		if changed == nil {
			plan = r.cat.graph.FullPlan()
			return nil
		}
		plan, err = r.cat.graph.Affected(changed)
		return err
	}); err != nil {
		return nil, rr, err
	}
	var snap map[string]*model.Cube
	var gens map[string]uint64
	r.l.timed("store.snapshot_s", func() error {
		snap, _, gens = r.st.SnapshotWithGenerations()
		return nil
	})

	var st *incrState
	if incremental {
		var err error
		plan, st, err = r.pruneStale(plan, snap, gens)
		if err != nil {
			return nil, rr, err
		}
	}
	rr.planned = len(plan)
	if len(plan) == 0 {
		return map[string]*model.Cube{}, rr, nil
	}
	var subs []determine.Subgraph
	r.l.timed("determine.plan_s", func() error {
		if r.parallel {
			subs = determine.PartitionByComponent(plan, assigner(mode), r.cat.graph)
		} else {
			subs = determine.Partition(plan, assigner(mode))
		}
		return nil
	})
	for name, sch := range schemas {
		if _, ok := snap[name]; !ok {
			snap[name] = model.NewCube(sch).Freeze()
		}
	}
	var est int64
	r.l.timed("model.estimate_s", func() error {
		for _, c := range snap {
			est += c.MemEstimate()
		}
		return nil
	})
	if err := r.l.timed("governor.admit_s", func() error { return ticket.Reserve(est) }); err != nil {
		return nil, rr, err
	}

	work := make(map[string]*model.Cube, len(snap))
	for k, v := range snap {
		work[k] = v
	}
	results := make(map[string]*model.Cube)
	for _, sub := range subs {
		f, err := buildFrag(sub, r.cat, schemas)
		if err != nil {
			return nil, rr, err
		}
		var out map[string]*model.Cube
		if r.parallel {
			// A parallel dispatcher runs each wave's fragments on their own
			// goroutines. The timed runs change one program, whose
			// statements form a chain, so each wave holds one fragment:
			// running the fragments one at a time, each on a goroutine of
			// its own, keeps the dispatcher's order and its hand-offs.
			done := make(chan struct{})
			go func() {
				defer close(done)
				out, err = r.runFrag(ctx, sub, f, work, st, &rr)
			}()
			<-done
		} else {
			out, err = r.runFrag(ctx, sub, f, work, st, &rr)
		}
		if err != nil {
			return nil, rr, err
		}
		for k, v := range out {
			work[k] = v
			results[k] = v
		}
	}
	rr.fragments = len(subs)

	var outEst int64
	r.l.timed("model.estimate_s", func() error {
		for _, c := range results {
			outEst += c.MemEstimate()
		}
		return nil
	})
	if delta := outEst - ticket.Reserved(); delta > 0 {
		if err := r.l.timed("governor.admit_s", func() error { return ticket.Reserve(delta) }); err != nil {
			return nil, rr, err
		}
	}
	persist := results
	if incremental {
		persist = make(map[string]*model.Cube, len(results))
		for name, c := range results {
			if snap[name] != c {
				persist[name] = c
			}
		}
	}
	for _, c := range persist {
		c.Freeze()
	}
	var commitGen uint64
	if err := r.l.timed(r.putLayer, func() (err error) {
		commitGen, err = r.st.PutAllGen(persist, asOf)
		return err
	}); err != nil {
		return nil, rr, err
	}
	r.updateMemos(plan, gens, commitGen, persist)
	return results, rr, nil
}

// frag is one subgraph compiled into a self-contained mapping, as the
// dispatcher builds it.
type frag struct {
	target   ops.Target
	m        *mapping.Mapping
	produces []string
	inputs   []string
}

func buildFrag(sub determine.Subgraph, cat *catalog, schemas map[string]model.Schema) (*frag, error) {
	f := &frag{target: sub.Target}
	m := &mapping.Mapping{Schemas: make(map[string]model.Schema)}
	producedHere := make(map[string]bool)
	for _, ref := range sub.Stmts {
		ts := cat.tgds(ref.Cube())
		if len(ts) == 0 {
			return nil, fmt.Errorf("no tgds for cube %s", ref.Cube())
		}
		for _, t := range ts {
			tc := *t
			m.Tgds = append(m.Tgds, &tc)
			producedHere[t.Target()] = true
			sch, ok := schemas[t.Target()]
			if !ok {
				return nil, fmt.Errorf("no schema for %s", t.Target())
			}
			m.Schemas[t.Target()] = sch
		}
		f.produces = append(f.produces, ref.Cube())
		m.Derived = append(m.Derived, ref.Cube())
	}
	seen := make(map[string]bool)
	for _, t := range m.Tgds {
		for _, a := range t.Lhs {
			if producedHere[a.Rel] || seen[a.Rel] {
				continue
			}
			seen[a.Rel] = true
			f.inputs = append(f.inputs, a.Rel)
			sch, ok := schemas[a.Rel]
			if !ok {
				return nil, fmt.Errorf("no schema for input %s", a.Rel)
			}
			m.Schemas[a.Rel] = sch
			m.Elementary = append(m.Elementary, a.Rel)
		}
	}
	for i, t := range m.Tgds {
		t.Stratum = i
	}
	f.m = m
	return f, nil
}

// runFrag executes one fragment on its target and, if that fails, on
// each fallback target in the dispatcher's order.
func (r *replayer) runFrag(ctx context.Context, sub determine.Subgraph, f *frag,
	snap map[string]*model.Cube, st *incrState, rr *replayRun) (map[string]*model.Cube, error) {

	input := make(map[string]*model.Cube, len(f.inputs))
	for _, in := range f.inputs {
		c, ok := snap[in]
		if !ok {
			return nil, fmt.Errorf("input cube %s not available", in)
		}
		input[in] = c
	}
	targets := append([]ops.Target{f.target}, determine.FallbackOrder(sub)...)
	var lastErr error
	for i, t := range targets {
		if i > 0 {
			rr.fallbacks++
		}
		var out map[string]*model.Cube
		var err error
		if st != nil {
			out, err = r.execIncr(ctx, t, f, input, st, rr)
		} else {
			out, err = r.exec(ctx, t, f, input)
		}
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fragment %v failed on every target: %w", f.produces, lastErr)
}

// keep restricts a target's output to the fragment's visible cubes.
func (f *frag) keep(all map[string]*model.Cube) map[string]*model.Cube {
	out := make(map[string]*model.Cube, len(f.produces))
	for _, name := range f.produces {
		if c, ok := all[name]; ok {
			out[name] = c
		}
	}
	return out
}

// exec runs the fragment's mapping on one target from scratch.
func (r *replayer) exec(ctx context.Context, target ops.Target, f *frag,
	input map[string]*model.Cube) (map[string]*model.Cube, error) {

	l := r.l
	switch target {
	case ops.TargetChase:
		var sol chase.Instance
		if err := l.timed("chase.solve_s", func() (err error) {
			sol, err = chase.New(f.m).SolveContext(ctx, chase.Instance(input))
			return err
		}); err != nil {
			return nil, err
		}
		return f.keep(sol), nil

	case ops.TargetSQL:
		db := sqlengine.NewDB()
		for _, in := range f.inputs {
			if err := l.timed("sqlengine.load_s", func() error { return db.LoadCube(input[in]) }); err != nil {
				return nil, err
			}
			l.add("sqlengine.rows_loaded", float64(input[in].Len()))
		}
		var script *sqlgen.Script
		if err := l.timed("sqlgen.translate_s", func() (err error) {
			script, err = sqlgen.Translate(f.m)
			return err
		}); err != nil {
			return nil, err
		}
		if err := l.timed("sqlengine.exec_s", func() error { return sqlgen.ExecuteContext(ctx, script, db) }); err != nil {
			return nil, err
		}
		out := make(map[string]*model.Cube, len(f.produces))
		for _, name := range f.produces {
			var c *model.Cube
			if err := l.timed("sqlengine.extract_s", func() (err error) {
				c, err = db.ExtractCube(f.m.Schemas[name])
				return err
			}); err != nil {
				return nil, err
			}
			l.add("sqlengine.rows_extracted", float64(c.Len()))
			out[name] = c
		}
		return out, nil

	case ops.TargetETL:
		var job *etl.Job
		if err := l.timed("etl.translate_s", func() (err error) {
			job, err = etl.Translate(f.m, "dispatch")
			return err
		}); err != nil {
			return nil, err
		}
		var res map[string]*model.Cube
		if err := l.timed("etl.run_s", func() (err error) {
			res, err = etl.RunContext(ctx, job, f.m, input)
			return err
		}); err != nil {
			return nil, err
		}
		return f.keep(res), nil

	case ops.TargetFrame:
		var script *frame.Script
		if err := l.timed("frame.translate_s", func() (err error) {
			script, err = frame.Translate(f.m)
			return err
		}); err != nil {
			return nil, err
		}
		var res map[string]*model.Cube
		if err := l.timed("frame.exec_s", func() (err error) {
			res, err = frame.ExecuteContext(ctx, script, f.m, input)
			return err
		}); err != nil {
			return nil, err
		}
		return f.keep(res), nil
	}
	return nil, fmt.Errorf("unknown target %s", target)
}

// incrState is the delta front of one incremental replay: input deltas,
// inputs changed without a usable delta, and previous outputs.
type incrState struct {
	deltas   map[string]*model.CubeDelta
	fullOnly map[string]bool
	bases    map[string]*model.Cube
}

// pruneStale is the engine's staleness walk: it keeps the plan's stale
// cubes and builds their delta front from the store.
func (r *replayer) pruneStale(plan []determine.StmtRef, snap map[string]*model.Cube,
	gens map[string]uint64) ([]determine.StmtRef, *incrState, error) {

	g := r.cat.graph
	stale := make(map[string]bool)
	var keep []determine.StmtRef
	for _, ref := range plan {
		cube := ref.Cube()
		m, ok := r.memo[cube]
		isStale := !ok || m.self != gens[cube]
		if !isStale {
			for _, dep := range g.Deps(cube) {
				if stale[dep] || gens[dep] != m.inputs[dep] {
					isStale = true
					break
				}
			}
		}
		if isStale {
			stale[cube] = true
			keep = append(keep, ref)
		}
	}
	st := &incrState{
		deltas:   make(map[string]*model.CubeDelta),
		fullOnly: make(map[string]bool),
		bases:    make(map[string]*model.Cube),
	}
	for _, ref := range keep {
		cube := ref.Cube()
		if m, ok := r.memo[cube]; ok && m.self == gens[cube] && snap[cube] != nil {
			st.bases[cube] = snap[cube]
		}
	}
	sinceGen := make(map[string]uint64)
	conflict := make(map[string]bool)
	for _, ref := range keep {
		cube := ref.Cube()
		m, ok := r.memo[cube]
		if !ok || st.bases[cube] == nil {
			continue
		}
		for _, dep := range g.Deps(cube) {
			if stale[dep] {
				continue
			}
			if prev, seen := sinceGen[dep]; !seen {
				sinceGen[dep] = m.inputs[dep]
			} else if prev != m.inputs[dep] {
				conflict[dep] = true
			}
		}
	}
	for _, dep := range sortedKeys(sinceGen) {
		since := sinceGen[dep]
		if conflict[dep] {
			st.fullOnly[dep] = true
			continue
		}
		if gens[dep] == since {
			continue
		}
		var d *model.CubeDelta
		if err := r.l.timed("store.delta_s", func() (err error) {
			d, err = r.st.Delta(dep, since)
			return err
		}); err != nil {
			st.fullOnly[dep] = true
			continue
		}
		if !d.Empty() {
			st.deltas[dep] = d
		}
	}
	return keep, st, nil
}

// updateMemos records the input generations the run computed from.
func (r *replayer) updateMemos(plan []determine.StmtRef, gens map[string]uint64, commitGen uint64,
	persisted map[string]*model.Cube) {

	computed := make(map[string]bool, len(plan))
	for _, ref := range plan {
		computed[ref.Cube()] = true
	}
	genOf := func(name string) uint64 {
		if _, ok := persisted[name]; ok && computed[name] {
			return commitGen
		}
		return gens[name]
	}
	for _, ref := range plan {
		cube := ref.Cube()
		m := replayMemo{self: genOf(cube), inputs: make(map[string]uint64)}
		for _, dep := range r.cat.graph.Deps(cube) {
			m.inputs[dep] = genOf(dep)
		}
		r.memo[cube] = m
	}
}

// execIncr runs a fragment under the delta front, as the dispatcher's
// incremental path does: reuse untouched outputs, maintain on the chase,
// recompute in full elsewhere, and publish the outputs' movement.
func (r *replayer) execIncr(ctx context.Context, target ops.Target, f *frag, input map[string]*model.Cube,
	st *incrState, rr *replayRun) (map[string]*model.Cube, error) {

	deltas := make(map[string]*model.CubeDelta)
	fullOnly := make(map[string]bool)
	for _, in := range f.inputs {
		if st.fullOnly[in] {
			fullOnly[in] = true
		} else if d := st.deltas[in]; d != nil {
			deltas[in] = d
		}
	}
	bases := make(map[string]*model.Cube)
	for _, name := range f.produces {
		if b := st.bases[name]; b != nil {
			bases[name] = b
		}
	}

	if len(deltas) == 0 && len(fullOnly) == 0 && len(bases) == len(f.produces) {
		out := make(map[string]*model.Cube, len(f.produces))
		for _, name := range f.produces {
			out[name] = bases[name]
		}
		return out, nil
	}

	var out map[string]*model.Cube
	var outDeltas map[string]*model.CubeDelta
	reason := ""
	switch target {
	case ops.TargetChase:
		din := &chase.DeltaInput{Deltas: deltas, FullOnly: fullOnly, BaseOut: bases}
		var sol chase.Instance
		var stats *chase.IncrStats
		if err := r.l.timed("chase.incr_solve_s", func() (err error) {
			sol, outDeltas, stats, err = chase.New(f.m).SolveIncremental(ctx, chase.Instance(input), din)
			return err
		}); err != nil {
			return nil, err
		}
		if stats.Full > 0 {
			reason = fmt.Sprintf("%d of %d tgds recomputed in full", stats.Full, stats.Tgds)
		}
		out = f.keep(sol)

	case ops.TargetSQL:
		var ok bool
		var err error
		out, outDeltas, ok, err = r.execSQLIncr(ctx, f, input, deltas, fullOnly, bases)
		if err != nil {
			return nil, err
		}
		if !ok {
			reason = "mapping not monotone over the changed relations"
			if out, err = r.exec(ctx, target, f, input); err != nil {
				return nil, err
			}
		}

	default:
		reason = fmt.Sprintf("target %s cannot maintain deltas", target)
		var err error
		if out, err = r.exec(ctx, target, f, input); err != nil {
			return nil, err
		}
	}
	if reason != "" {
		rr.fellBack++
		rr.reasons[reason]++
	}

	// Publish the outputs' movement for downstream fragments.
	for _, name := range f.produces {
		cur, base := out[name], st.bases[name]
		if cur == nil || base == nil {
			st.fullOnly[name] = true
			continue
		}
		if cur == base {
			continue
		}
		var d *model.CubeDelta
		if outDeltas != nil {
			d = outDeltas[name]
		} else {
			r.l.timed("model.diff_s", func() error {
				d = model.DiffCubes(name, base, cur)
				return nil
			})
		}
		if d != nil && !d.Empty() {
			st.deltas[name] = d
		}
	}
	return out, nil
}

// execSQLIncr maintains the fragment with an INSERT-delta SQL script, as
// the dispatcher does. ok is false when the shape disqualifies it: a
// delta that is not a pure insert, an input changed without a delta, a
// missing base, an auxiliary relation, or a mapping TranslateDelta
// refuses.
func (r *replayer) execSQLIncr(ctx context.Context, f *frag, input map[string]*model.Cube,
	deltas map[string]*model.CubeDelta, fullOnly map[string]bool,
	bases map[string]*model.Cube) (map[string]*model.Cube, map[string]*model.CubeDelta, bool, error) {

	if len(fullOnly) > 0 {
		return nil, nil, false, nil
	}
	changed := make(map[string]bool, len(deltas))
	for name, d := range deltas {
		if !d.PureInsert() {
			return nil, nil, false, nil
		}
		changed[name] = true
	}
	produced := make(map[string]bool, len(f.produces))
	for _, name := range f.produces {
		if bases[name] == nil {
			return nil, nil, false, nil
		}
		produced[name] = true
	}
	for _, t := range f.m.Tgds {
		if !produced[t.Target()] {
			return nil, nil, false, nil
		}
	}
	l := r.l
	var script *sqlgen.Script
	var affected []string
	if err := l.timed("sqlgen.translate_s", func() (err error) {
		script, affected, err = sqlgen.TranslateDelta(f.m, changed)
		return err
	}); err != nil {
		return nil, nil, false, nil
	}

	db := sqlengine.NewDB()
	load := func(c *model.Cube) error {
		l.add("sqlengine.rows_loaded", float64(c.Len()))
		return l.timed("sqlengine.load_s", func() error { return db.LoadCube(c) })
	}
	for _, in := range f.inputs {
		if err := load(input[in]); err != nil {
			return nil, nil, false, err
		}
	}
	for _, name := range f.produces {
		if err := load(bases[name]); err != nil {
			return nil, nil, false, err
		}
	}
	for _, name := range sortedKeys(changed) {
		var dc *model.Cube
		if err := l.timed("sqlgen.translate_s", func() (err error) {
			dc, err = sqlgen.DeltaCube(f.m.Schemas[name], deltas[name])
			return err
		}); err != nil {
			return nil, nil, false, err
		}
		if err := load(dc); err != nil {
			return nil, nil, false, err
		}
	}
	if err := l.timed("sqlengine.exec_s", func() error { return sqlgen.ExecuteContext(ctx, script, db) }); err != nil {
		return nil, nil, false, err
	}

	extract := func(sch model.Schema) (c *model.Cube, err error) {
		err = l.timed("sqlengine.extract_s", func() (err error) {
			c, err = db.ExtractCube(sch)
			return err
		})
		if err == nil {
			l.add("sqlengine.rows_extracted", float64(c.Len()))
		}
		return c, err
	}
	isAffected := make(map[string]bool, len(affected))
	for _, name := range affected {
		isAffected[name] = true
	}
	out := make(map[string]*model.Cube, len(f.produces))
	outDeltas := make(map[string]*model.CubeDelta, len(affected))
	for _, name := range f.produces {
		if !isAffected[name] {
			out[name] = bases[name]
			continue
		}
		cur, err := extract(f.m.Schemas[name])
		if err != nil {
			return nil, nil, false, err
		}
		out[name] = cur
		sch := f.m.Schemas[name]
		sch.Name = sqlgen.DeltaTable(name)
		dcube, err := extract(sch)
		if err != nil {
			return nil, nil, false, err
		}
		// Rows of the delta table whose key the base already held carry
		// the same value and are not additions.
		base := bases[name]
		od := &model.CubeDelta{Name: name, Base: base, Current: cur}
		l.timed("model.diff_s", func() error {
			for _, tu := range dcube.Tuples() {
				if _, had := base.Get(tu.Dims); !had {
					od.Added = append(od.Added, tu)
				}
			}
			return nil
		})
		outDeltas[name] = od
	}
	return out, outDeltas, true, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
