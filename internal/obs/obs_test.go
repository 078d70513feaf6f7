package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: the disabled path — nil registry, nil instruments, nil
// spans — must be a silent no-op everywhere; hot paths rely on it.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", []int64{1}) != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").SetMax(2)
	r.Histogram("x", nil).Observe(5)
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil snapshot not Empty")
	}
	r.Merge(&Snapshot{Counters: map[string]int64{"a": 1}})
	sp := r.StartSpan("s", KV("k", 1))
	if sp != nil {
		t.Fatal("nil registry started a span")
	}
	sp.Annotate("k", 2)
	sp.End()
	if r.Now().IsZero() {
		t.Fatal("nil registry Now is zero")
	}
	if got := r.SetClock(nil); got != nil {
		t.Fatal("nil SetClock returned non-nil")
	}
}

// TestSpanDisabledWithoutSink: a live registry with no sink must still
// return nil spans — the one-nil-check contract.
func TestSpanDisabledWithoutSink(t *testing.T) {
	r := New()
	if sp := r.StartSpan("s"); sp != nil {
		t.Fatal("span started without a sink")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("counter not memoized by name")
	}

	g := r.Gauge("peak")
	g.SetMax(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatalf("gauge SetMax = %d, want 4", g.Value())
	}
	g.Set(1)
	if g.Value() != 1 {
		t.Fatalf("gauge Set = %d, want 1", g.Value())
	}

	h := r.Histogram("lat", []int64{8, 2, 4}) // unsorted on purpose
	for _, v := range []int64{1, 2, 3, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 115 {
		t.Fatalf("histogram count/sum = %d/%d, want 5/115", h.Count(), h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if want := []int64{2, 4, 8}; len(hs.Bounds) != 3 || hs.Bounds[0] != want[0] || hs.Bounds[2] != want[2] {
		t.Fatalf("bounds = %v, want %v", hs.Bounds, want)
	}
	// ≤2: {1,2}; ≤4: {3}; ≤8: {}; overflow: {9,100}.
	if want := []int64{2, 1, 0, 2}; len(hs.Counts) != 4 || hs.Counts[0] != 2 || hs.Counts[1] != 1 || hs.Counts[3] != 2 {
		t.Fatalf("bucket counts = %v, want %v", hs.Counts, want)
	}
}

// TestSnapshotDeterministicJSON: identical work recorded in any interleaving
// must serialize to identical bytes — the byte-identical-rerun contract.
func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func(parallel bool) []byte {
		r := New()
		work := func(k int64) {
			r.Counter("c").Add(k)
			r.Gauge("g").SetMax(k)
			r.Histogram("h", []int64{4, 16}).Observe(k)
		}
		if parallel {
			var wg sync.WaitGroup
			for k := int64(1); k <= 32; k++ {
				wg.Add(1)
				go func(k int64) { defer wg.Done(); work(k) }(k)
			}
			wg.Wait()
		} else {
			for k := int64(32); k >= 1; k-- { // reversed order, same multiset
				work(k)
			}
		}
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := build(false), build(true)
	if !bytes.Equal(seq, par) {
		t.Fatalf("snapshot JSON differs:\nseq: %s\npar: %s", seq, par)
	}
}

func TestSnapshotEqual(t *testing.T) {
	a, b := New(), New()
	a.Counter("x").Add(1)
	b.Counter("x").Add(1)
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("equal registries compare unequal")
	}
	b.Counter("x").Inc()
	if a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("unequal registries compare equal")
	}
	var empty *Snapshot
	if !empty.Equal(&Snapshot{}) {
		t.Fatal("nil and zero snapshots should be equal")
	}
}

func TestMerge(t *testing.T) {
	child := New()
	child.Counter("c").Add(5)
	child.Gauge("g").SetMax(7)
	child.Histogram("h", []int64{10}).Observe(3)

	parent := New()
	parent.Counter("c").Add(1)
	parent.Gauge("g").SetMax(2)
	parent.Merge(child.Snapshot())
	parent.Merge(nil) // no-op

	s := parent.Snapshot()
	if s.Counters["c"] != 6 {
		t.Errorf("merged counter = %d, want 6", s.Counters["c"])
	}
	if s.Gauges["g"] != 7 {
		t.Errorf("merged gauge = %d, want 7", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 1 || h.Sum != 3 || h.Counts[0] != 1 {
		t.Errorf("merged histogram = %+v", h)
	}

	// Mismatched bounds must be skipped, not mixed.
	odd := &Snapshot{Histograms: map[string]HistogramSnapshot{
		"h": {Bounds: []int64{1, 2}, Counts: []int64{1, 0, 0}, Count: 1, Sum: 1},
	}}
	parent.Merge(odd)
	if got := parent.Snapshot().Histograms["h"].Count; got != 1 {
		t.Errorf("mismatched-bounds merge altered histogram: count = %d", got)
	}
}

func TestSpansEmitJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf)
	clock := &FakeClock{T: time.Unix(1000, 0), Step: time.Millisecond}
	r := New().SetClock(clock).SetTrace(sink)

	sp := r.StartSpan("outer", KV("id", "E1"))
	sp.Annotate("rows", 4)
	inner := r.StartSpan("inner")
	inner.End()
	sp.End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2:\n%s", len(lines), buf.String())
	}
	var evs []SpanEvent
	for _, ln := range lines {
		var ev SpanEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad JSONL %q: %v", ln, err)
		}
		evs = append(evs, ev)
	}
	// inner ends first.
	if evs[0].Span != "inner" || evs[1].Span != "outer" {
		t.Fatalf("span order = %s,%s", evs[0].Span, evs[1].Span)
	}
	if evs[1].Attrs["id"] != "E1" || evs[1].Attrs["rows"] != float64(4) {
		t.Fatalf("outer attrs = %v", evs[1].Attrs)
	}
	if evs[1].DurUS <= 0 || evs[0].DurUS <= 0 {
		t.Fatalf("durations not positive: %+v", evs)
	}
	if evs[0].ID == evs[1].ID {
		t.Fatal("span ids collide")
	}
}

func TestFakeClockAndRegistryClock(t *testing.T) {
	clock := &FakeClock{T: time.Unix(50, 0), Step: time.Second}
	r := New().SetClock(clock)
	t1, t2 := r.Now(), r.Now()
	if got := t2.Sub(t1); got != time.Second {
		t.Fatalf("fake clock advanced %v, want 1s", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a registry")
	}
	r := New()
	ctx := NewContext(context.Background(), r)
	if FromContext(ctx) != r {
		t.Fatal("registry lost in context round-trip")
	}
	if got := NewContext(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("nil registry stored in context")
	}
}

// TestConcurrencySafety exercises every instrument from many goroutines so
// `go test -race ./internal/obs` proves the layer race-free.
func TestConcurrencySafety(t *testing.T) {
	var buf bytes.Buffer
	r := New().SetTrace(NewTraceSink(&buf))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(w*1000 + i))
				r.Histogram("h", []int64{64, 512}).Observe(int64(i))
				if i%50 == 0 {
					sp := r.StartSpan("w")
					sp.End()
				}
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
}
