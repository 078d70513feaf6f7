package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a p99 over 200 samples would rest on two readings, so the
// tail helper falls back to the highest percentile that has this many
// samples beyond it.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs when at least minBeyond
// samples lie above it. Otherwise it returns the highest quantile that
// still leaves minBeyond samples beyond it, and that quantile as used. ok
// is false when that quantile would fall below the median: too few
// samples for a tail.
func tail(xs []float64, q float64) (v, used float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	used = float64(i+1) / float64(n)
	if used < 0.5 && used < q {
		return math.NaN(), 0, false
	}
	return s[i], used, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB (10⁶ bytes).
// Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// phase brackets one measured phase: wall clock, process CPU time and the
// Go allocator's cumulative counters.
type phase struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

// phaseCost is what a measured phase cost.
type phaseCost struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCycles  uint32
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.cpu = cpuTime()
	p.start = time.Now()
	return p
}

func (p *phase) end() phaseCost {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phaseCost{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(m.TotalAlloc-p.mem.TotalAlloc) / 1e6,
		gcCycles: m.NumGC - p.mem.NumGC,
	}
}
