package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/model"
	"exlengine/internal/obs"
	"exlengine/internal/ops"
	"exlengine/internal/store"
)

// panelProgram is the four-statement quarterly panel chain: tuple-level
// only, so every fragment of it is maintainable from deltas.
const panelProgram = `
cube S(q: quarter, r: string) measure v

A := S * 2
B := A + S
C := B - A
D := C * 0.5
`

var panelDerived = []string{"A", "B", "C", "D"}

// The two large inputs of full-panel hold 100k points each: PDR's days ×
// 20 regions and S's quarters × regions. revise-incremental's S has half
// as many quarters, so that one run holds enough revision cycles of
// every dispatch mode for steady medians and a steady p90.
const (
	panelDays      = 5000
	panelQuarters  = 1000
	reviseQuarters = 500
	panelRegions   = 100
	reviseShare    = 0.01 // share of S's points one revision changes
)

// panelSource builds S: quarters × panelRegions points, a per-region
// level and trend plus seeded noise.
func panelSource(seed int64, quarters int) *model.Cube {
	rng := rand.New(rand.NewSource(seed))
	sch := model.NewSchema("S",
		[]model.Dim{{Name: "q", Type: model.TQuarter}, {Name: "r", Type: model.TString}}, "v")
	c := model.NewCube(sch)
	start := model.NewQuarterly(1990, 1)
	for q := 0; q < quarters; q++ {
		p := model.Per(start.Shift(int64(q)))
		for r := 0; r < panelRegions; r++ {
			v := 100 + 7*float64(r%13) + 0.25*float64(q) + rng.NormFloat64()
			if err := c.Put([]model.Value{p, model.Str(fmt.Sprintf("r%02d", r))}, v); err != nil {
				panic(err) // the generator produces each key once
			}
		}
	}
	return c
}

// revise returns a copy of cur with reviseShare of its points changed at
// positions drawn from rng.
func revise(cur *model.Cube, rng *rand.Rand) *model.Cube {
	ts := cur.Tuples()
	out := cur.Clone()
	n := int(float64(len(ts)) * reviseShare)
	for _, i := range rng.Perm(len(ts))[:n] {
		t := ts[i]
		if err := out.Replace(t.Dims, t.Measure*(1+0.02*(rng.Float64()-0.5))+0.01); err != nil {
			panic(err) // the key exists in the copy
		}
	}
	return out
}

// checkPanel verifies the panel chain's outputs against S exactly: the
// chain's arithmetic evaluated directly, in the same float64 operation
// order the chase applies.
func checkPanel(s *model.Cube, get func(string) (*model.Cube, bool)) error {
	for _, name := range panelDerived {
		c, ok := get(name)
		if !ok {
			return fmt.Errorf("cube %s missing", name)
		}
		if c.Len() != s.Len() {
			return fmt.Errorf("cube %s has %d tuples, want %d", name, c.Len(), s.Len())
		}
		err := c.ForEach(func(t model.Tuple) error {
			v, ok := s.Get(t.Dims)
			if !ok {
				return fmt.Errorf("cube %s has a tuple S lacks", name)
			}
			want := panelValue(name, v)
			if math.Float64bits(t.Measure) != math.Float64bits(want) {
				return fmt.Errorf("cube %s: %v, want %v", name, t.Measure, want)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// panelValue evaluates the chain's statement for name at one point of S.
func panelValue(name string, s float64) float64 {
	a := s * 2
	b := a + s
	c := b - a
	switch name {
	case "A":
		return a
	case "B":
		return b
	case "C":
		return c
	}
	return c * 0.5
}

// sameCubes compares two sets of cubes within tol (0: exactly).
func sameCubes(names []string, got, want map[string]*model.Cube, tol float64) error {
	for _, n := range names {
		g, w := got[n], want[n]
		if g == nil || w == nil {
			return fmt.Errorf("cube %s missing", n)
		}
		if !g.Equal(w, tol) {
			return fmt.Errorf("cube %s differs: %v", n, g.Diff(w, tol, 3))
		}
	}
	return nil
}

// clock hands out strictly increasing version instants, so no write
// ever replaces a version at an equal instant.
type clock struct{ t time.Time }

func newClock() *clock { return &clock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)} }

func (c *clock) next() time.Time {
	c.t = c.t.Add(time.Second)
	return c.t
}

// runOpts builds the options of one run in the given dispatch mode.
func runOpts(mode string, at time.Time, extra ...engine.RunOption) []engine.RunOption {
	opts := append([]engine.RunOption{engine.RunAt(at)}, extra...)
	if mode != "default" {
		opts = append(opts, engine.RunOn(ops.Target(mode)))
	}
	return opts
}

// snapshotOf reads the current version of each named cube.
func snapshotOf(eng *engine.Engine, names []string) map[string]*model.Cube {
	out := make(map[string]*model.Cube, len(names))
	for _, n := range names {
		if c, ok := eng.Cube(n); ok {
			out[n] = c
		}
	}
	return out
}

// csvBytes renders a cube as the CSV a user would upload.
func csvBytes(c *model.Cube) ([]byte, error) {
	var buf bytes.Buffer
	if err := store.WriteCSV(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// timedRun runs eng once and returns the run's wall time and the heap
// bytes it allocated.
func timedRun(eng *engine.Engine, opts []engine.RunOption) (*engine.Report, float64, float64, error) {
	a0 := totalAlloc()
	start := time.Now()
	rep, err := eng.Run(context.Background(), opts...)
	d := since(start)
	return rep, d, totalAlloc() - a0, err
}

// reportCounts adds a run report's fragment figures to the layer counts.
func reportCounts(l *layers, rep *engine.Report) {
	l.add("dispatch.fragments", float64(len(rep.Fragments)))
	l.add("dispatch.fallbacks", float64(rep.Fallbacks))
	l.add("governor.queue_wait_s", rep.Queued.Seconds())
	for _, f := range rep.Fragments {
		if f.Incremental || f.FellBackFull {
			l.add("dispatch.incr_fragments", 1)
		}
		if f.FellBackFull {
			l.add("dispatch.incr_fellback", 1)
		}
	}
}

// fallbackReasons counts the incremental fallback reasons of a report.
func fallbackReasons(into map[string]int, rep *engine.Report) {
	for _, f := range rep.Fragments {
		if f.FellBackFull {
			into[fmt.Sprintf("%s: %s", f.Final, f.FallbackReason)]++
		}
	}
}

// spanTotals sums the durations of the trace's spans by name.
func spanTotals(tr *obs.Tracer) map[string]float64 {
	out := make(map[string]float64)
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		out[s.Name] += s.Dur.Seconds()
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	return out
}
