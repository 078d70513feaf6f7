package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"universalnet/internal/experiments"
)

var smallBigsim = bigsimSize{n: 2000, deg: 3, hostDim: 3, T: 2, window: 8, chunkBytes: 4 << 10, budgetBytes: 16 << 10}

var smallServe = serveSize{requests: 60, hotKeys: 8, hotShare: 0.8, clients: 2, checkSample: 4, hitCalls: 16}

func TestRequestListIsPureFunctionOfSeed(t *testing.T) {
	hot1, list1 := requestList(7, defaultServeSize)
	hot2, list2 := requestList(7, defaultServeSize)
	if !reflect.DeepEqual(hot1, hot2) || !reflect.DeepEqual(list1, list2) {
		t.Fatal("same seed gave different request lists")
	}
	_, other := requestList(8, defaultServeSize)
	if reflect.DeepEqual(list1, other) {
		t.Fatal("different seeds gave the same request list")
	}

	if len(list1) != defaultServeSize.requests || len(hot1) != defaultServeSize.hotKeys {
		t.Fatalf("got %d requests over %d hot keys", len(list1), len(hot1))
	}
	hotSeeds := map[int64]bool{}
	for _, r := range hot1 {
		hotSeeds[r.seed] = true
	}
	freshSeeds := map[int64]bool{}
	perFamily := make([]int, len(families))
	hits := 0
	for _, r := range list1 {
		if r.hot >= 0 {
			hits++
			continue
		}
		if hotSeeds[r.seed] || freshSeeds[r.seed] {
			t.Fatalf("fresh key seed %d repeats", r.seed)
		}
		freshSeeds[r.seed] = true
		perFamily[r.fam]++
	}
	if want := int(0.8 * float64(defaultServeSize.requests)); hits != want {
		t.Fatalf("%d hits, want %d", hits, want)
	}
	for f, n := range perFamily {
		if n != perFamily[0] {
			t.Fatalf("family %d has %d fresh keys, family 0 has %d", f, n, perFamily[0])
		}
	}
}

func TestGuestIsPureFunctionOfSeed(t *testing.T) {
	g1, _, err := newBigsim(3, smallBigsim).inputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := newBigsim(3, smallBigsim).inputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Fatal("same seed gave different guests")
	}
	g3, _, err := newBigsim(4, smallBigsim).inputs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Edges(), g3.Edges()) {
		t.Fatal("different seeds gave the same guest")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		name     string
		xs       []float64
		q        float64
		want     float64
		wantUsed float64
		ok       bool
	}{
		{name: "p99 of 2000 has 20 beyond", xs: seq(2000), q: 0.99, want: 1980, wantUsed: 0.99, ok: true},
		{name: "p99 of 1100 has exactly 11 beyond", xs: seq(1100), q: 0.99, want: 1089, wantUsed: 0.99, ok: true},
		{name: "p99 of 1000 has exactly 10 beyond", xs: seq(1000), q: 0.99, want: 990, wantUsed: 0.99, ok: true},
		{name: "p99 of 400 falls back to p97.5", xs: seq(400), q: 0.99, want: 390, wantUsed: 0.975, ok: true},
		{name: "p50 of 100 is not clamped", xs: seq(100), q: 0.5, want: 50, wantUsed: 0.5, ok: true},
		{name: "21 samples fall back to the median", xs: seq(21), q: 0.99, want: 11, wantUsed: 11.0 / 21, ok: true},
		{name: "19 samples have no tail above the median", xs: seq(19), q: 0.99, ok: false},
		{name: "10 samples have no qualifying percentile", xs: seq(10), q: 0.99, ok: false},
		{name: "empty", xs: nil, q: 0.5, ok: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, used, ok := tail(tc.xs, tc.q)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if v != tc.want || math.Abs(used-tc.wantUsed) > 1e-12 {
				t.Fatalf("tail = %v at q %v, want %v at q %v", v, used, tc.want, tc.wantUsed)
			}
			beyond := 0
			for _, x := range tc.xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Fatalf("%d samples beyond the reported value, want at least %d", beyond, minBeyond)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

func TestBigsimCountsCorruptedFingerprintAsFailure(t *testing.T) {
	b := newBigsim(5, smallBigsim)
	for i := 0; i < 2; i++ {
		it, err := b.iterate(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if it.failed != 0 || it.attempted != 1 {
			t.Fatalf("run %d: %d failed of %d", i, it.failed, it.attempted)
		}
	}
	if failed, err := b.verify(nil); err != nil || failed != 0 {
		t.Fatalf("clean runs: %d failed, err %v", failed, err)
	}
	b.fingerprints[1] ^= 1
	if failed, err := b.verify(nil); err != nil || failed != 1 {
		t.Fatalf("one corrupted fingerprint: %d failed, err %v; want 1", failed, err)
	}
	// A run that already failed is not counted twice.
	b.runFailed[1] = true
	if failed, _ := b.verify(nil); failed != 0 {
		t.Fatalf("already-failed run counted again: %d", failed)
	}
}

func TestServeCountsCorruptedResponseAsFailure(t *testing.T) {
	s := newServe(9, smallServe)
	it, err := s.iterate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.failed != 0 || it.attempted != smallServe.requests+smallServe.hotKeys {
		t.Fatalf("%d failed of %d", it.failed, it.attempted)
	}
	if failed, err := s.verify(nil); err != nil || failed != 0 {
		t.Fatalf("clean run: %d failed, err %v", failed, err)
	}

	hotIdx := -1
	for i, r := range s.list {
		if r.hot >= 0 {
			hotIdx = i
			break
		}
	}
	r := s.list[hotIdx]
	warm := make([]string, len(s.hot))
	warm[r.hot] = `{"a":1}`
	if !s.checkReply(hotIdx, r, reply{status: 200, body: []byte(`{"a":1,"cached":true}`)}, warm) {
		t.Fatal("a hit equal to its computed body up to the cached flag failed")
	}
	if s.checkReply(hotIdx, r, reply{status: 200, body: []byte(`{"a":2,"cached":true}`)}, warm) {
		t.Fatal("a corrupted hit body passed")
	}
	if s.checkReply(hotIdx, r, reply{status: 500, body: []byte(`{"a":1}`)}, warm) {
		t.Fatal("a non-200 response passed")
	}
	if s.checkReply(hotIdx, r, reply{err: errors.New("reset")}, warm) {
		t.Fatal("a transport error passed")
	}

	for i := range s.freshBodies {
		s.freshBodies[i] += " "
		break
	}
	if failed, err := s.verify(nil); err != nil || failed != 1 {
		t.Fatalf("one corrupted fresh body: %d failed, err %v; want 1", failed, err)
	}
}

func TestNormalize(t *testing.T) {
	a, err := normalize([]byte(`{"checksum":18446744073709551615,"cached":true,"host":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize([]byte(`{"host":"x","checksum":18446744073709551615,"cached":false}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("%s != %s", a, b)
	}
	c, _ := normalize([]byte(`{"host":"x","checksum":18446744073709551614}`))
	if a == c {
		t.Fatal("checksums differing in the last digit compared equal")
	}
}

func TestSuiteCountsFailedOrChangedExperiment(t *testing.T) {
	s := newSuite(1)
	ok := experiments.Result{ID: "E1", Text: "table"}
	if !s.checkResult(ok) || !s.checkResult(ok) {
		t.Fatal("a repeated result failed")
	}
	if s.checkResult(experiments.Result{ID: "E1", Text: "table!"}) {
		t.Fatal("a changed text passed")
	}
	if s.checkResult(experiments.Result{ID: "E2", Err: errors.New("boom")}) {
		t.Fatal("an experiment error passed")
	}
}

func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadOrder)
	}
	it := iteration{setup: time.Second, cost: phaseCost{wall: time.Second}, ops: 1, lat: []float64{1}, attempted: 1}
	ms, _, _ := endToEndMetrics([]iteration{it}, 1)
	if len(ms) != len(spec.EndToEnd) {
		t.Fatalf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(ms), len(spec.EndToEnd))
	}
	for i, m := range ms {
		if e := spec.EndToEnd[i]; m.name != e.Name || m.unit != e.Unit {
			t.Errorf("metric %d: program %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, e.Name, e.Unit)
		}
	}
}
