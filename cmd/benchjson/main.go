// Command benchjson converts `go test -bench -benchmem` text output (read
// from stdin) into a JSON object mapping benchmark name to its measurements,
// for machine-readable performance baselines (`make bench-json`).
//
// Input lines it understands look like
//
//	BenchmarkE1Suite-8   	      12	  95310417 ns/op	 4240168 B/op	   31456 allocs/op
//
// Custom b.ReportMetric columns may sit between ns/op and B/op; every column
// is read by its unit, and each custom one lands in a "metrics" object keyed
// by unit.
// Everything else (pass/fail markers, package headers, goos/goarch banners)
// is ignored. The trailing -N GOMAXPROCS suffix is stripped so baselines
// compare across machines. A name that repeats (`go test -count=N`) is
// reduced to the median of each field over its runs, so one noisy run
// cannot move the baseline. Output is a single indented JSON object sorted
// by benchmark name:
//
//	{
//	  "BenchmarkE1Suite": {"ns_per_op": 95310417, "bytes_per_op": 4240168, "allocs_per_op": 31456, "iterations": 12,
//	    "metrics": {"slowdown": 645}}
//	}
//
// Compare mode checks a new baseline against an old one
// (`make bench-compare`):
//
//	benchjson -compare OLD.json NEW.json -tol-ns 25 -tol-allocs 10
//
// prints a per-benchmark delta table and exits non-zero when any shared
// benchmark regresses beyond the percentage tolerances (-tol-ns, -tol-bytes,
// -tol-allocs), or when a custom metric both files record for a shared
// benchmark changes value at all: those columns are the paper's quantities
// (slowdown, ratio, k), pure functions of fixed seeds, so any drift is a
// real change rather than noise. Benchmarks or metrics present in only one
// file are reported but never count as regressions, so baselines can gain
// and lose them freely.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's parsed result line.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	// Metrics holds the b.ReportMetric columns, unit → value.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches a `testing.B` result row: name, iteration count, then
// the measurement columns as "value unit" pairs. ns/op comes first, but
// b.ReportMetric columns sit between it and the -benchmem columns, so
// parse reads every column by its unit. ns/op is mandatory; B/op and
// allocs/op are optional so plain `-bench` output still parses.
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix is the trailing -N the testing package appends to the
// benchmark name when GOMAXPROCS > 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads benchmark text from r and returns name → measurement. A name
// appearing more than once (-count > 1) maps to the per-field median of its
// runs.
func parse(r io.Reader) (map[string]Measurement, error) {
	runs := make(map[string][]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		meas := Measurement{Iterations: iters}
		hasNs := false
		cols := strings.Fields(m[3])
		for k := 0; k+1 < len(cols); k += 2 {
			val := cols[k]
			switch cols[k+1] {
			case "ns/op":
				ns, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
				}
				meas.NsPerOp, hasNs = ns, true
			case "B/op":
				meas.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				meas.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad %s in %q: %w", cols[k+1], sc.Text(), err)
				}
				if meas.Metrics == nil {
					meas.Metrics = make(map[string]float64)
				}
				meas.Metrics[cols[k+1]] = v
			}
		}
		if !hasNs {
			continue
		}
		runs[name] = append(runs[name], meas)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Measurement, len(runs))
	for name, ms := range runs {
		meas := Measurement{
			NsPerOp:     median(ms, func(m Measurement) float64 { return m.NsPerOp }),
			BytesPerOp:  int64(median(ms, func(m Measurement) float64 { return float64(m.BytesPerOp) })),
			AllocsPerOp: int64(median(ms, func(m Measurement) float64 { return float64(m.AllocsPerOp) })),
			Iterations:  int64(median(ms, func(m Measurement) float64 { return float64(m.Iterations) })),
		}
		// Each custom metric is the median over the runs that report it.
		metricRuns := make(map[string][]float64)
		for _, m := range ms {
			for unit, v := range m.Metrics {
				metricRuns[unit] = append(metricRuns[unit], v)
			}
		}
		if len(metricRuns) > 0 {
			meas.Metrics = make(map[string]float64, len(metricRuns))
		}
		for unit, vals := range metricRuns {
			meas.Metrics[unit] = medianOf(vals)
		}
		out[name] = meas
	}
	return out, nil
}

// median returns the median of field over ms.
func median(ms []Measurement, field func(Measurement) float64) float64 {
	vals := make([]float64, len(ms))
	for i, m := range ms {
		vals[i] = field(m)
	}
	return medianOf(vals)
}

// medianOf returns the median of vals, which it sorts in place; an even
// count averages the two middle values.
func medianOf(vals []float64) float64 {
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

func run(in io.Reader, out io.Writer) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results) // map keys marshal sorted
}

// loadBaseline reads a benchjson-format JSON baseline file.
func loadBaseline(path string) (map[string]Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]Measurement
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// deltaPct returns the percentage change from old to new. A zero old value
// yields 0 when new is also zero and +100 per unit otherwise, so a metric
// appearing from nothing is visible without dividing by zero.
func deltaPct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100 * new
	}
	return 100 * (new - old) / old
}

// tolerances holds the allowed percentage growth per metric before a
// benchmark counts as regressed.
type tolerances struct {
	ns, bytes, allocs float64
}

// compare renders the delta table of new versus old and returns the number
// of shared benchmarks regressing beyond tolerance in any field, or whose
// custom metrics recorded on both sides differ at all.
func compare(oldM, newM map[string]Measurement, tol tolerances, w io.Writer) int {
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	regressed, metrics := 0, 0
	fmt.Fprintf(w, "%-40s %12s %12s %12s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs Δ")
	for _, name := range names {
		o, n := oldM[name], newM[name]
		dNs := deltaPct(o.NsPerOp, n.NsPerOp)
		dBytes := deltaPct(float64(o.BytesPerOp), float64(n.BytesPerOp))
		dAllocs := deltaPct(float64(o.AllocsPerOp), float64(n.AllocsPerOp))
		bad := dNs > tol.ns || dBytes > tol.bytes || dAllocs > tol.allocs
		var notes []string
		for _, unit := range sortedUnits(o.Metrics) {
			ov := o.Metrics[unit]
			nv, ok := n.Metrics[unit]
			switch {
			case !ok:
				notes = append(notes, fmt.Sprintf("    %s: only in old baseline", unit))
			case nv != ov:
				notes = append(notes, fmt.Sprintf("    %s: %g -> %g  CHANGED", unit, ov, nv))
				bad = true
			default:
				metrics++
			}
		}
		for _, unit := range sortedUnits(n.Metrics) {
			if _, ok := o.Metrics[unit]; !ok {
				notes = append(notes, fmt.Sprintf("    %s: only in new baseline", unit))
			}
		}
		mark := ""
		if bad {
			mark = "  REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-40s %+11.1f%% %+11.1f%% %+11.1f%%%s\n", name, dNs, dBytes, dAllocs, mark)
		for _, note := range notes {
			fmt.Fprintln(w, note)
		}
	}
	for name := range oldM {
		if _, ok := newM[name]; !ok {
			fmt.Fprintf(w, "%-40s only in old baseline\n", name)
		}
	}
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			fmt.Fprintf(w, "%-40s only in new baseline\n", name)
		}
	}
	limits := fmt.Sprintf("ns>%g%%, bytes>%g%%, allocs>%g%%, any custom-metric change", tol.ns, tol.bytes, tol.allocs)
	if regressed > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond tolerance (%s)\n", regressed, limits)
	} else {
		fmt.Fprintf(w, "no regressions beyond tolerance (%s) across %d shared benchmark(s), %d custom metric(s) equal\n",
			limits, len(names), metrics)
	}
	return regressed
}

// sortedUnits returns the metric units of m in order.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for unit := range m {
		units = append(units, unit)
	}
	sort.Strings(units)
	return units
}

// runCompare loads the two baselines and writes the delta table; the error
// carries the regression verdict for main's exit code.
func runCompare(oldPath, newPath string, tol tolerances, w io.Writer) error {
	oldM, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newM, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	if regressed := compare(oldM, newM, tol, w); regressed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed", regressed)
	}
	return nil
}

func main() {
	comparePath := flag.String("compare", "", "old baseline JSON; with a new baseline as the positional argument, print deltas and fail on regression")
	tolNs := flag.Float64("tol-ns", 25, "allowed ns/op growth in percent before a regression is flagged")
	tolBytes := flag.Float64("tol-bytes", 10, "allowed B/op growth in percent before a regression is flagged")
	tolAllocs := flag.Float64("tol-allocs", 10, "allowed allocs/op growth in percent before a regression is flagged")
	// Parse in a loop so flags may follow positionals, as in
	// `benchjson -compare OLD.json NEW.json -tol-ns 25 -tol-allocs 10`.
	args := os.Args[1:]
	var positionals []string
	for {
		flag.CommandLine.Parse(args) // ExitOnError: exits on bad flags
		rest := flag.CommandLine.Args()
		if len(rest) == 0 {
			break
		}
		positionals = append(positionals, rest[0])
		args = rest[1:]
	}

	if *comparePath != "" {
		if len(positionals) != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare OLD.json needs exactly one NEW.json argument")
			os.Exit(2)
		}
		tol := tolerances{ns: *tolNs, bytes: *tolBytes, allocs: *tolAllocs}
		if err := runCompare(*comparePath, positionals[0], tol, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
