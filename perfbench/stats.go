package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q=0.5 is the median). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// liveHeap forces collections and returns the bytes of live heap. The
// second collection empties the sync.Pool victim caches the first one
// only demotes.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// settle runs a collection before a timed operation, so the operation
// pays for the garbage it makes and not for the collection debt earlier
// operations left behind. Runs allocate up to gigabytes over a heap of
// hundreds of megabytes; without this, where a collection cycle happens
// to fall moves a sub-second run's time by a third.
func settle() { runtime.GC() }

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// cpuClock reads the runtime's CPU accounting: seconds of GC work and
// seconds of all work, as estimated by runtime/metrics.
func cpuClock() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// environment describes the machine and build the figures come from.
func environment() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"godebug":      os.Getenv("GODEBUG"),
		"flush_policy": flushPolicy,
		"go":           runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"gogc":         gogc,
		"commit":       commit(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision the benchmark was built from: the
// build's VCS stamp, with " (modified)" when the tree differed from that
// revision, or "unknown" when the checkout is not a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not a git checkout)"
	}
	if modified {
		rev += " (modified)"
	}
	return rev
}

// peakRSS reports the process's peak resident set size as the kernel
// states it, or "unknown" off Linux.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
