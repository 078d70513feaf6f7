package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: universalnet
cpu: Some CPU @ 2.00GHz
BenchmarkE1Suite-8   	      12	  95310417 ns/op	 4240168 B/op	   31456 allocs/op
BenchmarkRouteTorus 	    4096	    292041 ns/op
BenchmarkPebbleValidate-16	     100	  10500000.5 ns/op	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkSomething-8
    bench_test.go:42: note line, not a result
PASS
ok  	universalnet	12.345s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	e1, ok := got["BenchmarkE1Suite"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: keys %v", got)
	}
	if e1.NsPerOp != 95310417 || e1.BytesPerOp != 4240168 || e1.AllocsPerOp != 31456 || e1.Iterations != 12 {
		t.Errorf("E1Suite = %+v", e1)
	}
	rt := got["BenchmarkRouteTorus"]
	if rt.NsPerOp != 292041 || rt.BytesPerOp != 0 || rt.AllocsPerOp != 0 {
		t.Errorf("RouteTorus (no -benchmem columns) = %+v", rt)
	}
	if pv := got["BenchmarkPebbleValidate"]; pv.NsPerOp != 10500000.5 {
		t.Errorf("fractional ns/op = %+v", pv)
	}
}

// TestParseReportMetricColumns: b.ReportMetric columns print between ns/op
// and the -benchmem columns; B/op and allocs/op must still be read.
func TestParseReportMetricColumns(t *testing.T) {
	line := "BenchmarkStreamingPipeline-2         \t     144\t   8592049 ns/op\t    131428 peak-chunk-bytes\t       645.0 slowdown\t 1034943 B/op\t     356 allocs/op\n"
	got, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := got["BenchmarkStreamingPipeline"]
	if !ok {
		t.Fatalf("benchmark missing: %v", got)
	}
	if sp.NsPerOp != 8592049 || sp.BytesPerOp != 1034943 || sp.AllocsPerOp != 356 || sp.Iterations != 144 {
		t.Errorf("StreamingPipeline = %+v", sp)
	}
	if want := map[string]float64{"peak-chunk-bytes": 131428, "slowdown": 645}; !reflect.DeepEqual(sp.Metrics, want) {
		t.Errorf("metrics = %v, want %v", sp.Metrics, want)
	}
}

// TestParseMetricsTakeMedian: each custom metric is reduced to the median
// of the runs that report it, by unit, independently of the other columns;
// a benchmark with no custom columns records no metrics object.
func TestParseMetricsTakeMedian(t *testing.T) {
	const runs = `BenchmarkX-2   10   300 ns/op   3.5 s/((n/m)logm)   12 k@log2m=4e6   50 B/op   7 allocs/op
BenchmarkX-2   12   100 ns/op   3.5 s/((n/m)logm)   10 k@log2m=4e6   40 B/op   5 allocs/op
BenchmarkX-2   11   200 ns/op   9.0 s/((n/m)logm)   11 k@log2m=4e6   60 B/op   5 allocs/op
BenchmarkY-2    4    10 ns/op   11 B/op   1 allocs/op
`
	got, err := parse(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"s/((n/m)logm)": 3.5, "k@log2m=4e6": 11}; !reflect.DeepEqual(got["BenchmarkX"].Metrics, want) {
		t.Errorf("X metrics = %v, want %v", got["BenchmarkX"].Metrics, want)
	}
	if m := got["BenchmarkY"].Metrics; m != nil {
		t.Errorf("Y has no custom columns but recorded %v", m)
	}

	var out bytes.Buffer
	if err := run(strings.NewReader(runs), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), `"metrics"`) != 1 {
		t.Errorf("want exactly one metrics object (X only):\n%s", out.String())
	}
	var back map[string]Measurement
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Errorf("JSON round trip changed the baseline:\n got %v\nwant %v", back, got)
	}
}

func TestParseRejectsBadMetricValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2   10   300 ns/op   NaNish slowdown\n")); err == nil {
		t.Error("unparseable metric value accepted")
	}
}

// TestParseRepeatedNamesTakeMedian: -count=N prints each benchmark N
// times; every field is reduced to its own median, so one outlier run
// moves nothing and an even count averages the middle pair.
func TestParseRepeatedNamesTakeMedian(t *testing.T) {
	const runs = `BenchmarkX-2   10   300 ns/op   50 B/op   7 allocs/op
BenchmarkX-2   12   100 ns/op   40 B/op   5 allocs/op
BenchmarkX-2   11  9000 ns/op   60 B/op   5 allocs/op
BenchmarkX-2    9   200 ns/op   45 B/op   6 allocs/op
BenchmarkX-2   13   250 ns/op   42 B/op   6 allocs/op
BenchmarkY-2    4    10 ns/op   11 B/op   1 allocs/op
BenchmarkY-2    6    30 ns/op   13 B/op   3 allocs/op
`
	got, err := parse(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	if x, want := got["BenchmarkX"], (Measurement{NsPerOp: 250, BytesPerOp: 45, AllocsPerOp: 6, Iterations: 11}); !reflect.DeepEqual(x, want) {
		t.Errorf("odd count: got %+v, want %+v", x, want)
	}
	if y, want := got["BenchmarkY"], (Measurement{NsPerOp: 20, BytesPerOp: 12, AllocsPerOp: 2, Iterations: 5}); !reflect.DeepEqual(y, want) {
		t.Errorf("even count: got %+v, want %+v", y, want)
	}
}

func TestRunEmitsSortedJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]Measurement
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d entries, want 3", len(decoded))
	}
	// Go marshals map keys sorted, so the baseline file is diff-stable.
	i1 := bytes.Index(out.Bytes(), []byte("BenchmarkE1Suite"))
	i2 := bytes.Index(out.Bytes(), []byte("BenchmarkPebbleValidate"))
	i3 := bytes.Index(out.Bytes(), []byte("BenchmarkRouteTorus"))
	if !(i1 < i2 && i2 < i3) {
		t.Errorf("keys not sorted: positions %d %d %d\n%s", i1, i2, i3, out.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok\n"), &out); err == nil {
		t.Error("no-benchmark input accepted")
	}
}

func TestDeltaPct(t *testing.T) {
	cases := []struct{ old, new, want float64 }{
		{100, 125, 25},
		{100, 75, -25},
		{100, 100, 0},
		{0, 0, 0},
		{0, 3, 300}, // appears from nothing: visible, no division by zero
	}
	for _, c := range cases {
		if got := deltaPct(c.old, c.new); got != c.want {
			t.Errorf("deltaPct(%g, %g) = %g, want %g", c.old, c.new, got, c.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldM := map[string]Measurement{
		"BenchmarkFast":    {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkSlower":  {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkAllocs":  {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkRemoved": {NsPerOp: 5},
	}
	newM := map[string]Measurement{
		"BenchmarkFast":   {NsPerOp: 500, BytesPerOp: 900, AllocsPerOp: 90},   // improved
		"BenchmarkSlower": {NsPerOp: 1300, BytesPerOp: 1000, AllocsPerOp: 99}, // +30% ns
		"BenchmarkAllocs": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 120},
		"BenchmarkAdded":  {NsPerOp: 7},
	}
	tol := tolerances{ns: 25, bytes: 10, allocs: 10}

	var out bytes.Buffer
	if got := compare(oldM, newM, tol, &out); got != 2 {
		t.Errorf("compare counted %d regressions, want 2 (Slower ns, Allocs allocs)\n%s", got, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"BenchmarkSlower", "REGRESSED",
		"BenchmarkRemoved", "only in old baseline",
		"BenchmarkAdded", "only in new baseline",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "BenchmarkFast                            REGRESSED") {
		t.Errorf("improvement flagged as regression:\n%s", text)
	}
}

func TestCompareWithinToleranceIsClean(t *testing.T) {
	oldM := map[string]Measurement{"BenchmarkX": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100}}
	newM := map[string]Measurement{"BenchmarkX": {NsPerOp: 1200, BytesPerOp: 1050, AllocsPerOp: 105}}
	var out bytes.Buffer
	if got := compare(oldM, newM, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); got != 0 {
		t.Errorf("within-tolerance drift flagged: %d regressions\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "no regressions beyond tolerance") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// TestCompareFailsOnAnyMetricChange: a custom metric recorded on both sides
// of a shared benchmark must match exactly, however small the drift and
// whatever the timing tolerances; a metric on one side only is reported
// and never fails.
func TestCompareFailsOnAnyMetricChange(t *testing.T) {
	oldM := map[string]Measurement{
		"BenchmarkSame":    {NsPerOp: 1000, Metrics: map[string]float64{"slowdown": 645, "k": 3.25}},
		"BenchmarkDrift":   {NsPerOp: 1000, Metrics: map[string]float64{"slowdown": 645}},
		"BenchmarkOneSide": {NsPerOp: 1000, Metrics: map[string]float64{"retired": 1}},
	}
	newM := map[string]Measurement{
		"BenchmarkSame":    {NsPerOp: 500, Metrics: map[string]float64{"slowdown": 645, "k": 3.25}},
		"BenchmarkDrift":   {NsPerOp: 900, Metrics: map[string]float64{"slowdown": 645.0001}},
		"BenchmarkOneSide": {NsPerOp: 1000, Metrics: map[string]float64{"added": 2}},
	}
	var out bytes.Buffer
	if got := compare(oldM, newM, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); got != 1 {
		t.Errorf("compare counted %d regressions, want 1 (Drift's slowdown)\n%s", got, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"slowdown: 645 -> 645.0001  CHANGED",
		"retired: only in old baseline",
		"added: only in new baseline",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "BenchmarkDrift") != strings.Contains(line, "REGRESSED") {
			t.Errorf("only BenchmarkDrift should be flagged, got line %q", line)
		}
	}

	delete(newM, "BenchmarkDrift")
	out.Reset()
	if got := compare(oldM, newM, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); got != 0 {
		t.Errorf("equal and one-sided metrics flagged: %d\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "2 custom metric(s) equal") {
		t.Errorf("clean verdict should count the 2 equal metrics:\n%s", out.String())
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := dir + "/old.json"
	newPath := dir + "/new.json"
	writeBaseline := func(path string, m map[string]Measurement) {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBaseline(oldPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000}})

	writeBaseline(newPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 1000}})
	var out bytes.Buffer
	if err := runCompare(oldPath, newPath, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); err != nil {
		t.Errorf("identical baselines: %v", err)
	}

	writeBaseline(newPath, map[string]Measurement{"BenchmarkX": {NsPerOp: 2000}})
	out.Reset()
	if err := runCompare(oldPath, newPath, tolerances{ns: 25, bytes: 10, allocs: 10}, &out); err == nil {
		t.Error("2x ns/op regression not reported as error")
	}

	if err := runCompare(dir+"/missing.json", newPath, tolerances{}, &out); err == nil {
		t.Error("missing old baseline accepted")
	}
}
