// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
//	bash perfbench/run.sh --workload bigsim|serve|suite --seed N --seconds S --trace 0|1
//
// Each workload runs in its own process and generates its load from there,
// as a pure function of --seed. With --trace 0 the workload repeats set-up
// plus a measured phase while another repeat fits in --seconds (at least
// minIters times) and reports end-to-end metrics as medians over the
// repeats, with tracing off. With --trace 1 it sweeps the per-layer probes of all three
// workloads (calls into each layer's public functions, timed from here,
// plus counters the program already exposes), keeps spans in memory and
// writes them as JSONL under .bench_build/spans/ at exit.
//
// Every run checks the program's outputs; a failed check counts as a failed
// operation. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The lines above it are a header (machine, Go runtime, resolved program
// configuration) and a table with each metric's sample count and whether it
// is a timing or an exact-repeat count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// minIters is the fewest measured repeats per end-to-end run, so a median
// never rests on one or two readings even when --seconds is short.
const minIters = 3

// metric is one reported number. count marks an exact-repeat quantity (an
// op count, a byte total, a ratio of counters): it compares two versions of
// the program exactly and is not a timing.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	count   bool
	note    string
}

// iteration is one set-up plus measured phase of a workload.
type iteration struct {
	setup     time.Duration
	cost      phaseCost
	ops       float64   // operations completed in the measured phase
	lat       []float64 // per-operation latency, ms
	attempted int
	failed    int
}

// workload is one benchmark workload. iterate runs set-up and one measured
// phase (tr nil means untraced). verify runs the checks that need an
// independent reference, after the measured phases, and returns how many
// operations they failed. layers runs the per-layer probes once.
type workload interface {
	iterate(tr *tracer, parent *span) (iteration, error)
	verify(tr *tracer) (failed int, err error)
	layers(tr *tracer) ([]metric, error)
	// describe returns header lines with the resolved configuration.
	describe() []string
}

// workloadWhy records why each workload exists; BENCHMARK.json carries the
// same text.
var workloadWhy = map[string]string{
	"bigsim": "streaming build, pipe handoff, sharded validation and ~60 MB chunk spill at n=3e5 on the uninet bigsim defaults: pebble does nearly all the work; no service, cache or routing",
	"serve":  "closed loop of 2 keep-alive clients over loopback HTTP, 80% warm cache hits and 20% fresh computes: HTTP/JSON/telemetry/cache spine and compute tail; bypasses pebble streaming",
	"suite":  "E1-E24 and E26 through Runner{Workers: 1}: every paper layer at small sizes incl. the dense pebble.State engine; the guard that should not move for bigsim or serve changes",
}

var workloadOrder = []string{"bigsim", "serve", "suite"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "bigsim":
		return newBigsim(seed, defaultBigsimSize), nil
	case "serve":
		return newServe(seed, defaultServeSize), nil
	case "suite":
		return newSuite(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want bigsim, serve or suite)", name)
}

func main() {
	name := flag.String("workload", "", "workload: bigsim, serve or suite")
	seed := flag.Int64("seed", 1, "workload seed; every input is a pure function of it")
	seconds := flag.Int("seconds", 10, "how long to keep repeating the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer sweep")
	flag.Parse()
	if _, ok := workloadWhy[*name]; !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload bigsim|serve|suite --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	printHeader(os.Stdout, *name, *seed, *seconds, *trace)
	var (
		ms                []metric
		attempted, failed int
		err               error
	)
	if *trace == 0 {
		ms, attempted, failed, err = runEndToEnd(os.Stdout, *name, *seed, budget)
	} else {
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		ms, attempted, failed, err = runTraced(os.Stdout, *seed, budget, spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, ms, attempted, failed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printHeader writes the machine and runtime the numbers were taken on.
func printHeader(w io.Writer, name string, seed int64, seconds, trace int) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset(100)"
	}
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "# why: %s\n", workloadWhy[name])
	fmt.Fprintf(w, "# machine: NumCPU=%d GOMAXPROCS=%d GOGC=%s go=%s %s/%s vcs.revision=%s%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), runtime.GOOS, runtime.GOARCH, rev, modified)
}

// runEndToEnd repeats the workload's set-up and measured phase, untraced,
// while another repeat fits in budget, and at least minIters times.
func runEndToEnd(w io.Writer, name string, seed int64, budget time.Duration) ([]metric, int, int, error) {
	wl, err := newWorkload(name, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	var its []iteration
	start := time.Now()
	for last := time.Duration(0); len(its) < minIters || fits(start, last, budget); {
		t := time.Now()
		it, err := wl.iterate(nil, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		its = append(its, it)
		last = time.Since(t)
	}
	rss := peakRSSMB()
	vfailed, err := wl.verify(nil)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, line := range wl.describe() {
		fmt.Fprintf(w, "# %s: %s\n", name, line)
	}
	walls := make([]string, len(its))
	for i, it := range its {
		walls[i] = fmt.Sprintf("%.4g", it.cost.wall.Seconds())
	}
	fmt.Fprintf(w, "# wall_s per measured phase: %s\n", strings.Join(walls, " "))
	ms, attempted, failed := endToEndMetrics(its, rss)
	failed += vfailed
	printTable(w, ms)
	printErrorRate(w, failed, attempted)
	return ms, attempted, failed, nil
}

// printErrorRate reports failed ÷ attempted operations. The JSON carries
// both counts rather than the ratio, which is 0 on a correct program.
func printErrorRate(w io.Writer, failed, attempted int) {
	fmt.Fprintf(w, "# %-34s %14.6g %-6s n=%-6d count (%d failed of %d attempted)\n", "error_rate", float64(failed)/float64(attempted), "ratio", attempted, failed, attempted)
}

// fits reports whether another repeat as long as the last one ends within
// budget of start, so a run stops near --seconds instead of overrunning by
// up to one repeat.
func fits(start time.Time, last, budget time.Duration) bool {
	return time.Since(start)+last <= budget
}

// endToEndMetrics reduces the repeats to the end-to-end metrics: medians
// over repeats, latency percentiles over the pooled per-operation samples.
func endToEndMetrics(its []iteration, rss float64) ([]metric, int, int) {
	var setup, wall, cpu, opsPerS, lat []float64
	attempted, failed := 0, 0
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		wall = append(wall, it.cost.wall.Seconds())
		cpu = append(cpu, it.cost.cpu.Seconds())
		opsPerS = append(opsPerS, it.ops/it.cost.wall.Seconds())
		lat = append(lat, it.lat...)
		attempted += it.attempted
		failed += it.failed
	}
	n := len(its)
	ms := []metric{
		{name: "wall_s", value: median(wall), unit: "s", samples: n},
		{name: "setup_s", value: median(setup), unit: "s", samples: n},
		{name: "cpu_s", value: median(cpu), unit: "s", samples: n},
		{name: "peak_rss_mb", value: rss, unit: "MB", samples: 1, note: "process high-water mark after the measured phases"},
		{name: "ops_per_s", value: median(opsPerS), unit: "1/s", samples: n},
		{name: "latency_p50_ms", value: median(lat), unit: "ms", samples: len(lat)},
		tailMetric("latency_p99_ms", lat, 0.99),
	}
	return ms, attempted, failed
}

// tailMetric reports the q-quantile of xs under the minBeyond rule. With
// too few samples for a tail above the median, the median is reported and
// the note says so.
func tailMetric(name string, xs []float64, q float64) metric {
	m := metric{name: name, unit: "ms", samples: len(xs)}
	v, used, ok := tail(xs, q)
	switch {
	case !ok:
		m.value = median(xs)
		m.note = fmt.Sprintf("median: no percentile above it has %d of %d samples beyond it", minBeyond, len(xs))
	case used < q:
		m.value = v
		m.note = fmt.Sprintf("p%.2f, the highest percentile with %d samples beyond it", 100*used, minBeyond)
	default:
		m.value = v
	}
	return m
}

// runTraced sweeps the per-layer probes of every workload while another
// sweep fits in budget, and at least once. Each sweep also runs each workload's measured
// phase once untraced and once traced; the difference is the tracing
// overhead, and the untraced phase gives the go.* allocation metrics.
func runTraced(w io.Writer, seed int64, budget time.Duration, spansPath string) ([]metric, int, int, error) {
	tr := &tracer{}
	wls := map[string]workload{}
	for _, wn := range workloadOrder {
		wl, err := newWorkload(wn, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		wls[wn] = wl
	}
	samples := map[string][]metric{}
	attempted, failed := 0, 0
	start := time.Now()
	for sweep, last := 1, time.Duration(0); sweep == 1 || fits(start, last, budget); sweep++ {
		t := time.Now()
		for _, wn := range workloadOrder {
			wl := wls[wn]
			// The untraced phase runs first: serve's layer probes read the
			// hit round trips and cache counters it observed.
			plain, err := wl.iterate(nil, nil)
			if err != nil {
				return nil, 0, 0, err
			}
			tr.setRun(fmt.Sprintf("%s/seed%d/sweep%d/layers", wn, seed, sweep))
			ms, err := wl.layers(tr)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("%s layers: %w", wn, err)
			}
			tr.setRun(fmt.Sprintf("%s/seed%d/sweep%d/traced", wn, seed, sweep))
			root := tr.begin(wn+".measured", nil)
			traced, err := wl.iterate(tr, root)
			root.finish()
			if err != nil {
				return nil, 0, 0, err
			}
			for _, it := range []iteration{plain, traced} {
				attempted += it.attempted
				failed += it.failed
			}
			ms = append(ms,
				metric{name: wn + ".go.alloc_mb", value: plain.cost.allocMB, unit: "MB", count: true},
				metric{name: wn + ".go.gc_cycles", value: float64(plain.cost.gcCycles), unit: "count", count: true},
				metric{name: wn + ".trace.overhead_s", value: traced.cost.wall.Seconds() - plain.cost.wall.Seconds(), unit: "s",
					note: "traced minus untraced wall_s of one measured phase each"},
			)
			for _, m := range ms {
				samples[m.name] = append(samples[m.name], m)
			}
		}
		last = time.Since(t)
	}
	for _, wn := range workloadOrder {
		vfailed, err := wls[wn].verify(tr)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s verify: %w", wn, err)
		}
		failed += vfailed
		for _, line := range wls[wn].describe() {
			fmt.Fprintf(w, "# %s: %s\n", wn, line)
		}
	}
	var ms []metric
	for _, ss := range samples {
		ms = append(ms, mergeSamples(ss))
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	printTable(w, ms)
	printErrorRate(w, failed, attempted)
	if err := tr.write(spansPath); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(w, "# spans: %d written to %s\n", len(tr.spans), spansPath)
	return ms, attempted, failed, nil
}

// mergeSamples reduces one metric's per-sweep readings to their median.
func mergeSamples(ss []metric) metric {
	vals := make([]float64, len(ss))
	samples := 0
	for i, s := range ss {
		vals[i] = s.value
		samples += max(s.samples, 1)
	}
	m := ss[0]
	m.value = median(vals)
	m.samples = samples
	return m
}

func printTable(w io.Writer, ms []metric) {
	for _, m := range ms {
		kind := "timing"
		if m.count {
			kind = "count"
		}
		line := fmt.Sprintf("# %-34s %14.6g %-6s n=%-6d %s", m.name, m.value, m.unit, max(m.samples, 1), kind)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes the final JSON line. A metric that did not come out
// as a finite number (JSON has no NaN) makes the run incorrect rather than
// being printed as a plausible value.
func printResult(w io.Writer, ms []metric, attempted, failed int) error {
	res := jsonResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = -1
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
