package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
	"exlengine/internal/workload"
	"exlengine/server"
)

const (
	servedTenants   = 2   // one closed-loop client each
	servedPrograms  = 32  // three-statement programs per tenant
	servedMonths    = 240 // length of every series
	servedRevisions = 8   // pre-generated revisions per series
	// servedSegments is how many servers one run starts, one after the
	// other, each serving an equal share of the HTTP time. Every tenant
	// store keeps every version and compaction snapshots all of them, so
	// a server's memory and compaction cost grow with the cycles it has
	// served; a fresh server per segment bounds both, and each start is
	// a set-up sample.
	servedSegments = 10
	// servedHTTPShare is the share of the measuring time spent on the
	// HTTP clients; the rest runs the catalog in-process on each forced
	// target, which the HTTP API cannot select.
	servedHTTPShare = 0.8
)

// dataRoot is where durable stores live: inside the checkout, in the
// build directory the benchmark already ignores.
const dataRoot = ".bench_build"

// flushPolicy describes the durable stores' settings, which are the
// server's defaults.
const flushPolicy = "durable store defaults: group-commit window 0 (every commit fsyncs before it is acknowledged), compaction after 4 MiB of WAL"

// servedCatalog is E8's catalog: independent programs over monthly series.
func servedCatalog() []program {
	progs := make([]program, servedPrograms)
	for i := range progs {
		progs[i] = program{fmt.Sprintf("p%02d", i), fmt.Sprintf(`
cube S%02d(t: month) measure v
A%02d := S%02d * 2
B%02d := movavg(A%02d, 3)
C%02d := (B%02d - shift(B%02d, 1)) * 100 / shift(B%02d, 1)
`, i, i, i, i, i, i, i, i, i)}
	}
	return progs
}

// servedInputs holds one tenant's generated data: the first version of
// every series, its revisions as CSV uploads, and the in-process result
// each revision must give.
type servedInputs struct {
	base     [][]byte        // [k] CSV of S_k's first version
	revs     [][][]byte      // [k][r] CSV of revision r of S_k
	wantCSV  [][][]byte      // [k][r] C_k as an in-process run writes it
	wantCube [][]*model.Cube // [k][r] C_k cube
}

func seriesName(prefix string, k int) string { return fmt.Sprintf("%s%02d", prefix, k) }

// genServed builds a tenant's inputs and, on an in-process engine with an
// in-memory store, the expected C_k of every revision.
func genServed(seed int64, tenant int, progs []program) (*servedInputs, error) {
	in := &servedInputs{
		base:     make([][]byte, servedPrograms),
		revs:     make([][][]byte, servedPrograms),
		wantCSV:  make([][][]byte, servedPrograms),
		wantCube: make([][]*model.Cube, servedPrograms),
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(tenant)))
	ref := engine.New()
	for _, p := range progs {
		if err := ref.RegisterProgram(p.name, p.src); err != nil {
			return nil, err
		}
	}
	clk := newClock()
	bases := make([]*model.Cube, servedPrograms)
	for k := 0; k < servedPrograms; k++ {
		bases[k] = workload.Series(workload.SeriesConfig{
			Name: seriesName("S", k), Freq: model.Monthly, N: servedMonths,
			Seed: rng.Int63(), Level: 100 + float64(k), Trend: 0.5, SeasonAmp: 5, NoiseAmp: 1,
		})
		b, err := csvBytes(bases[k])
		if err != nil {
			return nil, err
		}
		in.base[k] = b
		if err := ref.PutCube(bases[k], clk.next()); err != nil {
			return nil, err
		}
	}
	if _, err := ref.Run(context.Background(), engine.RunAt(clk.next())); err != nil {
		return nil, err
	}
	for k := 0; k < servedPrograms; k++ {
		for r := 0; r < servedRevisions; r++ {
			rev := bases[k].Clone()
			ts := bases[k].Tuples()
			for _, i := range rng.Perm(len(ts))[:3] { // ~1% of the 240 points
				if err := rev.Replace(ts[i].Dims, ts[i].Measure*(1+0.02*(rng.Float64()-0.5))); err != nil {
					return nil, err
				}
			}
			b, err := csvBytes(rev)
			if err != nil {
				return nil, err
			}
			in.revs[k] = append(in.revs[k], b)
			if err := ref.LoadCSV(seriesName("S", k), bytes.NewReader(b), clk.next()); err != nil {
				return nil, err
			}
			if _, err := ref.Run(context.Background(), engine.RunChanged(seriesName("S", k)), engine.RunAt(clk.next())); err != nil {
				return nil, err
			}
			c, _ := ref.Cube(seriesName("C", k))
			var buf bytes.Buffer
			if err := ref.WriteCSV(seriesName("C", k), &buf); err != nil {
				return nil, err
			}
			in.wantCSV[k] = append(in.wantCSV[k], buf.Bytes())
			in.wantCube[k] = append(in.wantCube[k], c)
		}
	}
	return in, nil
}

// httpClient talks to one tenant through one session.
type httpClient struct {
	hc   *http.Client
	base string
	sid  string
}

func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if c.sid != "" {
		req.Header.Set(server.SessionHeader, c.sid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect performs a request that must answer want.
func (c *httpClient) expect(want int, method, path string, body []byte) ([]byte, error) {
	status, b, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	return b, nil
}

// servedEnv is one running server with its tenants loaded and primed.
type servedEnv struct {
	srv     *server.Server
	dir     string
	served  chan error
	hc      *http.Client
	clients []*httpClient
}

func startServed(progs []program, inputs []*servedInputs) (*servedEnv, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "served-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &servedEnv{
		srv:    server.New(server.Config{DataDir: dir}),
		dir:    dir,
		served: make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedTenants}},
	}
	go func() { env.served <- env.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for t := range inputs {
		c := &httpClient{hc: env.hc, base: base}
		env.clients = append(env.clients, c)
		body, _ := json.Marshal(map[string]string{"tenant": fmt.Sprintf("t%d", t)})
		b, err := c.expect(http.StatusCreated, "POST", "/v1/sessions", body)
		if err != nil {
			env.stop()
			return nil, err
		}
		var sess struct{ Session string }
		if err := json.Unmarshal(b, &sess); err != nil {
			env.stop()
			return nil, err
		}
		c.sid = sess.Session
		for _, p := range progs {
			body, _ := json.Marshal(map[string]string{"name": p.name, "source": p.src})
			if _, err := c.expect(http.StatusCreated, "POST", "/v1/programs", body); err != nil {
				env.stop()
				return nil, err
			}
		}
		for k := range inputs[t].base {
			if _, err := c.expect(http.StatusOK, "PUT", "/v1/cubes/"+seriesName("S", k), inputs[t].base[k]); err != nil {
				env.stop()
				return nil, err
			}
		}
		if _, err := c.expect(http.StatusOK, "POST", "/v1/run", []byte("{}")); err != nil {
			env.stop()
			return nil, err
		}
	}
	return env, nil
}

// stop shuts the server down, waits for it and removes its data.
func (e *servedEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	e.hc.CloseIdleConnections()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// tenantMetrics reads a tenant's /v1/metrics registry.
func (c *httpClient) tenantMetrics() (*metricsSnapshot, error) {
	b, err := c.expect(http.StatusOK, "GET", "/v1/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	var m metricsSnapshot
	return &m, json.Unmarshal(b, &m)
}

type metricsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// clientLog is what one closed-loop client measured.
type clientLog struct {
	puts, runs, gets []float64
	cycles, ops      int
	failed           []string
}

// clientLoop runs PUT S_k, POST /v1/run, GET C_k cycles until the
// deadline, checking every GET against the in-process result.
func clientLoop(c *httpClient, in *servedInputs, deadline time.Time, log *clientLog) {
	fail := func(format string, args ...any) {
		log.failed = append(log.failed, fmt.Sprintf(format, args...))
	}
	for cyc := 0; time.Now().Before(deadline); cyc++ {
		k, r := cyc%servedPrograms, (cyc/servedPrograms)%servedRevisions
		s, cname := seriesName("S", k), seriesName("C", k)

		log.ops++
		start := time.Now()
		if _, err := c.expect(http.StatusOK, "PUT", "/v1/cubes/"+s, in.revs[k][r]); err != nil {
			fail("%v", err)
			continue
		}
		log.puts = append(log.puts, since(start))

		log.ops++
		body := []byte(fmt.Sprintf(`{"changed":[%q]}`, s))
		start = time.Now()
		if _, err := c.expect(http.StatusOK, "POST", "/v1/run", body); err != nil {
			fail("%v", err)
			continue
		}
		log.runs = append(log.runs, since(start))

		log.ops++
		start = time.Now()
		got, err := c.expect(http.StatusOK, "GET", "/v1/cubes/"+cname, nil)
		if err != nil {
			fail("%v", err)
			continue
		}
		log.gets = append(log.gets, since(start))
		if !bytes.Equal(got, in.wantCSV[k][r]) {
			fail("GET %s after revision %d differs from the in-process result", cname, r)
			continue
		}
		log.cycles++
	}
}

// httpPhase drives every tenant with its own client for d and returns
// the clients' logs and the phase's wall time.
func httpPhase(env *servedEnv, inputs []*servedInputs, d time.Duration) ([]*clientLog, float64) {
	logs := make([]*clientLog, len(env.clients))
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range env.clients {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(i int, c *httpClient) {
			defer wg.Done()
			clientLoop(c, inputs[i], deadline, logs[i])
		}(i, c)
	}
	wg.Wait()
	return logs, since(start)
}

// inprocEngine is a tenant's engine stack built in-process, as the
// server builds it: parallel dispatch, private metrics and compile
// cache, and a durable store, or an in-memory one.
type inprocEngine struct {
	eng *engine.Engine
	st  interface {
		Names() []string
		Versions(name string) []time.Time
		SnapshotWithGenerations() (map[string]*model.Cube, uint64, map[string]uint64)
	}
	dir string // the durable store's directory, if any
	clk *clock
}

func newInprocEngine(progs []program, in *servedInputs, durableStore bool) (*inprocEngine, error) {
	opts := []engine.Option{engine.WithParallelDispatch(), engine.WithMetrics(obs.NewRegistry()),
		engine.WithCompileCache(engine.NewCompileCache(64))}
	ie := &inprocEngine{clk: newClock()}
	if durableStore {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(dataRoot, "inproc-")
		if err != nil {
			return nil, err
		}
		st, err := durable.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		ie.st, ie.dir = st, dir
		opts = append(opts, engine.WithStore(st))
	} else {
		st := store.New()
		ie.st = st
		opts = append(opts, engine.WithStore(st))
	}
	ie.eng = engine.New(opts...)
	for _, p := range progs {
		if err := ie.eng.RegisterProgram(p.name, p.src); err != nil {
			ie.close()
			return nil, err
		}
	}
	at := ie.clk.next()
	for k, b := range in.base {
		if err := ie.eng.LoadCSV(seriesName("S", k), bytes.NewReader(b), at); err != nil {
			ie.close()
			return nil, err
		}
	}
	if _, err := ie.eng.Run(context.Background(), engine.RunAt(ie.clk.next())); err != nil {
		ie.close()
		return nil, err
	}
	return ie, nil
}

func (ie *inprocEngine) close() error {
	err := ie.eng.Shutdown(context.Background())
	if ie.dir != "" {
		if rerr := os.RemoveAll(ie.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// counted are the unlabelled tenant counters a run reads from
// /v1/metrics.
var counted = []string{obs.MetricStoreSegments, obs.MetricStoreFsyncs, obs.MetricStoreWALBytes, obs.MetricRuns}

// shedKey is the stats entry summing governor sheds over every reason.
const shedKey = "governor_shed_all_reasons"

// addShed adds the increments of the governor's shed counters between
// two snapshots to stats: one entry per labelled counter
// (governor_shed_total{reason=...}) and their sum under shedKey.
func addShed(stats map[string]float64, before, after *metricsSnapshot) {
	for key, v := range after.Counters {
		if key != obs.MetricShed && !strings.HasPrefix(key, obs.MetricShed+"{") {
			continue
		}
		d := float64(v - before.Counters[key])
		stats[key] += d
		stats[shedKey] += d
	}
}

// servedSegment drives a started server for d, adds what it measured to
// sm and out, adds the tenants' counter increments to stats, and stops
// the server. It returns the cycles completed.
func servedSegment(env *servedEnv, inputs []*servedInputs, d time.Duration, sm *samples, out *outcome,
	stats map[string]float64) (int, error) {

	before := make([]*metricsSnapshot, len(env.clients))
	for i, c := range env.clients {
		m, err := c.tenantMetrics()
		if err != nil {
			env.stop()
			return 0, err
		}
		before[i] = m
	}
	heap0 := liveHeap()
	a0 := totalAlloc()
	logs, wall := httpPhase(env, inputs, d)
	alloc := totalAlloc() - a0
	heap1 := liveHeap()
	var cycles int
	for _, l := range logs {
		sm.puts = append(sm.puts, l.puts...)
		sm.runs["default"] = append(sm.runs["default"], l.runs...)
		sm.gets = append(sm.gets, l.gets...)
		cycles += l.cycles
		out.attempted += l.ops
		for _, f := range l.failed {
			out.fail("%s", f)
		}
	}
	sm.done += cycles
	sm.window += wall
	if cycles > 0 {
		sm.alloc = append(sm.alloc, alloc/float64(cycles))
		sm.retained = append(sm.retained, (heap1-heap0)/float64(cycles))
	}
	for i, c := range env.clients {
		m, err := c.tenantMetrics()
		if err != nil {
			env.stop()
			return 0, err
		}
		for _, name := range counted {
			stats[name] += float64(m.Counters[name] - before[i].Counters[name])
		}
		addShed(stats, before[i], m)
		h, h0 := m.Histograms["governor_queue_wait_ms"], before[i].Histograms["governor_queue_wait_ms"]
		stats["governor_queue_wait_ms_sum"] += h.Sum - h0.Sum
		stats["governor_queue_wait_count"] += float64(h.Count - h0.Count)
	}
	return cycles, env.stop()
}

func runServedCatalog(cfg config) (*outcome, error) {
	out := newOutcome()
	progs := servedCatalog()
	out.notes["load"] = fmt.Sprintf("%d closed-loop clients over loopback HTTP, one per tenant, in the server's process: they share its CPUs", servedTenants)
	out.notes["servers_per_run"] = servedSegments
	out.notes["forced_targets"] = "run_s.<target> are in-process runs of the same catalog, engine built as the server builds a tenant but on an in-memory store; the HTTP API has no target selector"

	sm := newSamples()
	genStart := time.Now()
	var inputs []*servedInputs
	for t := 0; t < servedTenants; t++ {
		in, err := genServed(cfg.seed, t, progs)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	sm.gen = since(genStart)

	httpTime := time.Duration(float64(cfg.seconds) * servedHTTPShare)
	if cfg.trace {
		httpTime = cfg.seconds / 2
	}
	inprocTime := cfg.seconds - httpTime

	// Untraced, each HTTP segment is followed by a slice of the forced
	// in-process runs, so that these sub-millisecond runs are spread over
	// the whole run: the host's speed drifts by a fifth within seconds,
	// and a median of runs bunched into a few seconds follows that drift.
	var forced *forcedRuns
	if !cfg.trace {
		ie, err := newInprocEngine(progs, inputs[0], false)
		if err != nil {
			return nil, err
		}
		forced = &forcedRuns{ie: ie, in: inputs[0]}
		defer func() {
			if forced != nil {
				forced.ie.close()
			}
		}()
	}
	tenantStats := map[string]float64{}
	for seg := 0; seg < servedSegments; seg++ {
		start := time.Now()
		env, err := startServed(progs, inputs)
		if err != nil {
			return nil, err
		}
		sm.setup = append(sm.setup, since(start))
		if _, err := servedSegment(env, inputs, httpTime/servedSegments, sm, out, tenantStats); err != nil {
			return nil, err
		}
		if forced != nil {
			if err := forced.run(inprocTime/servedSegments, sm, out); err != nil {
				return nil, err
			}
		}
	}
	out.notes["tenant_metrics_during_http_phase"] = tenantStats

	if cfg.trace {
		tl := newTraceLog()
		if err := traceServed(progs, inputs[0], inprocTime, tl, out); err != nil {
			return nil, err
		}
		httpRun := median(sm.runs["default"])
		tl.vals["server.overhead_s"] = httpRun - median(tl.untraced["default"])
		if n := tenantStats["governor_queue_wait_count"]; n > 0 {
			tl.vals["governor.queue_wait_s"] = tenantStats["governor_queue_wait_ms_sum"] / n / 1000
		}
		tl.vals["governor.shed"] = tenantStats[shedKey]
		if sm.done > 0 {
			tl.vals["durable.compactions"] = tenantStats["store_segments_total"] / float64(sm.done)
		}
		tl.report(out)
		out.notes["http_run_p50_s"] = httpRun
		return out, nil
	}
	err := forced.ie.close()
	forced = nil
	if err != nil {
		return nil, err
	}
	sm.report(out)
	return out, nil
}

// forcedRuns runs revision cycles of one tenant's catalog in-process,
// rotating through the forced targets so that each target runs every
// program; cyc carries the rotation from one slice of the run to the
// next.
type forcedRuns struct {
	ie  *inprocEngine
	in  *servedInputs
	cyc int
}

// run makes forced-target cycles for d. It collects first, so that the
// garbage of the server before it is not collected during these runs.
func (f *forcedRuns) run(d time.Duration, sm *samples, out *outcome) error {
	ie, in := f.ie, f.in
	settle()
	deadline := time.Now().Add(d)
	for ; time.Now().Before(deadline); f.cyc++ {
		cyc := f.cyc
		mode := modes[1+(cyc+cyc/servedPrograms)%(len(modes)-1)]
		k, r := cyc%servedPrograms, (cyc/servedPrograms)%servedRevisions
		if err := ie.eng.LoadCSV(seriesName("S", k), bytes.NewReader(in.revs[k][r]), ie.clk.next()); err != nil {
			return err
		}
		out.attempted++
		_, dur, _, err := timedRun(ie.eng, runOpts(mode, ie.clk.next(), engine.RunChanged(seriesName("S", k))))
		if err != nil {
			out.fail("in-process %s run: %v", mode, err)
			continue
		}
		sm.runs[mode] = append(sm.runs[mode], dur)
		c, _ := ie.eng.Cube(seriesName("C", k))
		if !c.Equal(in.wantCube[k][r], 1e-6) {
			out.fail("in-process %s run: %s differs from the default-dispatch result", mode, seriesName("C", k))
		}
	}
	return nil
}

// traceServed replays one tenant's cycles in-process, layer by layer,
// next to untraced and obs-traced runs of an identically loaded durable
// engine. The replay writes to its own durable store.
func traceServed(progs []program, in *servedInputs, d time.Duration, tl *traceLog, out *outcome) error {
	catL := newLayers()
	cat, err := compileCatalog(catL, progs)
	if err != nil {
		return err
	}
	tl.all.merge(catL)
	ie, err := newInprocEngine(progs, in, true)
	if err != nil {
		return err
	}
	defer ie.close()
	rdir, err := os.MkdirTemp(dataRoot, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdir)
	rreg := obs.NewRegistry()
	rd, err := durable.Open(filepath.Join(rdir, "store"), durable.WithMetrics(rreg))
	if err != nil {
		return err
	}
	defer rd.Close()
	rp := newReplayer(newLayers(), cat, rd, "durable.commit_s", true)
	if err := rp.declare(); err != nil {
		return err
	}
	at := ie.clk.next()
	for k := range in.base {
		s, _ := ie.eng.Cube(seriesName("S", k))
		if err := rd.Put(s, at); err != nil {
			return err
		}
	}
	if _, _, err := rp.run(ctxBG, "default", nil, false, ie.clk.next()); err != nil {
		return err
	}
	// WALStats restarts with every WAL a compaction rotates in; the
	// store's metrics accumulate across them.
	walBytes := func() (float64, float64) {
		return float64(rreg.Counter(obs.MetricStoreWALBytes).Value()), float64(rreg.Counter(obs.MetricStoreFsyncs).Value())
	}
	wal0, fsync0 := walBytes()
	var commits, userBytes float64

	gc0, cpu0 := cpuClock()
	deadline := time.Now().Add(d)
	// One pass is one cycle in each dispatch mode; the untraced and
	// obs-traced passes alternate.
	for cyc := 0; cyc < 2*len(modes) || time.Now().Before(deadline); cyc++ {
		mode := modes[cyc%len(modes)]
		k, r := cyc%servedPrograms, (cyc/servedPrograms)%servedRevisions
		s, cname := seriesName("S", k), seriesName("C", k)
		at := ie.clk.next()
		if err := ie.eng.LoadCSV(s, bytes.NewReader(in.revs[k][r]), at); err != nil {
			return err
		}
		out.attempted++
		opts := runOpts(mode, ie.clk.next(), engine.RunChanged(s))
		var tr *obs.Tracer
		if (cyc/len(modes))%2 == 1 {
			tr = obs.NewTracer()
			opts = append(opts, engine.RunTraced(tr))
		}
		rep, dur, _, err := timedRun(ie.eng, opts)
		if err != nil {
			out.fail("in-process %s run: %v", mode, err)
			continue
		}
		if tr != nil {
			tl.traced[mode] = append(tl.traced[mode], dur)
			tl.spans(tr)
		} else {
			tl.untraced[mode] = append(tl.untraced[mode], dur)
		}
		reportCounts(tl.all, rep)

		var c *model.Cube
		sch, _ := rd.Schema(s)
		if err := tl.all.timed("store.csv_read_s", func() (err error) {
			c, err = store.ReadCSV(bytes.NewReader(in.revs[k][r]), sch)
			return err
		}); err != nil {
			return err
		}
		if err := tl.all.timed("durable.commit_s", func() error { return rd.Put(c, at) }); err != nil {
			return err
		}
		userBytes += float64(len(in.revs[k][r]))
		runL := newLayers()
		rp.l = runL
		got, rr, err := rp.run(ctxBG, mode, []string{s}, false, ie.clk.next())
		if err != nil {
			out.fail("replay: %v", err)
			continue
		}
		commits += 2
		tl.sameDecisions(mode, rep, rr)
		tl.replayed(mode, runL, rr, 3*servedPrograms)
		tl.all.merge(runL)
		want, _ := ie.eng.Cube(cname)
		if got[cname] == nil || !got[cname].Equal(want, 0) {
			out.fail("%s replay of %s differs from Engine.Run", mode, cname)
		}
		tl.all.timed("store.csv_write_s", func() error { return store.WriteCSV(io.Discard, got[cname]) })
		if cyc%len(modes) == len(modes)-1 {
			tl.passes++
			if tr != nil {
				tl.tracedPasses++
			}
		}
	}
	wal1, fsync1 := walBytes()
	if commits > 0 {
		tl.vals["durable.fsyncs_per_commit"] = (fsync1 - fsync0) / commits
	}
	if userBytes > 0 {
		tl.vals["durable.wal_bytes_per_user_byte"] = (wal1 - wal0) / userBytes
	}
	snap, _, _ := ie.st.SnapshotWithGenerations()
	tl.bytesPerTuple(snap)
	tl.heap = append(tl.heap, liveHeap())
	tl.runtime(gc0, cpu0)
	tl.versions = append(tl.versions, versions(ie.st, ie.st.Names()))
	return nil
}
