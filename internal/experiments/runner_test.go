package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"universalnet/internal/obs"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 25 {
		t.Fatalf("Registry: got %d experiments, want 25", len(reg))
	}
	for i, e := range reg {
		// E25 is the CI-only chaos soak (scripts/cluster_smoke.sh), so the
		// registry skips from E24 to E26.
		wantID := fmt.Sprintf("E%d", i+1)
		if i == 24 {
			wantID = "E26"
		}
		if e.ID != wantID {
			t.Errorf("Registry[%d].ID = %q, want %q", i, e.ID, wantID)
		}
		if e.Claim == "" {
			t.Errorf("%s: empty Claim", e.ID)
		}
		if e.Modules == "" {
			t.Errorf("%s: empty Modules", e.ID)
		}
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.ID)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil {
		t.Fatalf("Select(nil): %v", err)
	}
	if len(all) != 25 {
		t.Fatalf("Select(nil): got %d, want 25", len(all))
	}

	sel, err := Select([]string{" e4", "E1 ", "e12"})
	if err != nil {
		t.Fatalf("Select subset: %v", err)
	}
	got := make([]string, len(sel))
	for i, e := range sel {
		got[i] = e.ID
	}
	// Registry order, not request order.
	if want := "E1 E4 E12"; strings.Join(got, " ") != want {
		t.Fatalf("Select subset: got %v, want %s", got, want)
	}

	if _, err := Select([]string{"E1", "E99"}); err == nil {
		t.Fatal("Select with unknown id: want error, got nil")
	}
	if _, err := Select([]string{"E3", "e3"}); err == nil {
		t.Fatal("Select with duplicate id: want error, got nil")
	}
}

func TestSeedFor(t *testing.T) {
	cfg := Config{Seed: 1}
	if a, b := cfg.SeedFor("E7"), cfg.SeedFor("E7"); a != b {
		t.Fatalf("SeedFor not pure: %d vs %d", a, b)
	}
	seen := make(map[int64]string)
	for _, e := range Registry() {
		s := cfg.SeedFor(e.ID)
		if s < 0 {
			t.Errorf("SeedFor(%s) = %d, want non-negative", e.ID, s)
		}
		if prev, ok := seen[s]; ok {
			t.Errorf("SeedFor collision: %s and %s both get %d", prev, e.ID, s)
		}
		seen[s] = e.ID
	}
	if (Config{Seed: 1}).SeedFor("E1") == (Config{Seed: 2}).SeedFor("E1") {
		t.Error("SeedFor ignores the root seed")
	}
}

// TestRunnerParallelDeterminism is the suite-level invariant behind
// -parallel: with per-experiment seeds derived from the root seed, the
// rendered table text must be byte-identical whether the suite runs on one
// worker or eight.
func TestRunnerParallelDeterminism(t *testing.T) {
	exps := Registry()
	cfg := Config{Seed: 1}

	seq := &Runner{Workers: 1, FailFast: true}
	seqRes, err := seq.Run(context.Background(), exps, cfg)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par := &Runner{Workers: 8, FailFast: true}
	parRes, err := par.Run(context.Background(), exps, cfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if len(seqRes) != len(parRes) {
		t.Fatalf("result count: %d vs %d", len(seqRes), len(parRes))
	}
	for i := range seqRes {
		if seqRes[i].ID != parRes[i].ID {
			t.Fatalf("result %d: order differs, %s vs %s", i, seqRes[i].ID, parRes[i].ID)
		}
		if seqRes[i].Seed != parRes[i].Seed {
			t.Errorf("%s: derived seed differs, %d vs %d", seqRes[i].ID, seqRes[i].Seed, parRes[i].Seed)
		}
		if seqRes[i].Text != parRes[i].Text {
			t.Errorf("%s: table text differs between workers=1 and workers=8", seqRes[i].ID)
		}
		if !seqRes[i].Metrics.Equal(parRes[i].Metrics) {
			t.Errorf("%s: metrics snapshot differs between workers=1 and workers=8:\n%+v\n%+v",
				seqRes[i].ID, seqRes[i].Metrics, parRes[i].Metrics)
		}
	}
}

// fakeExp builds a registry-shaped experiment for runner behavior tests.
func fakeExp(id string, run func(ctx context.Context, cfg Config) (Result, error)) Experiment {
	return Experiment{ID: id, Claim: "test", Modules: "test", Run: run}
}

func TestRunnerExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	before := runtime.NumGoroutine()
	bodyRan := false
	exps := []Experiment{
		fakeExp("X1", func(context.Context, Config) (Result, error) {
			bodyRan = true
			return Result{}, nil
		}),
		fakeExp("X2", func(context.Context, Config) (Result, error) {
			bodyRan = true
			return Result{}, nil
		}),
	}

	r := &Runner{Workers: 2}
	start := time.Now()
	results, err := r.Run(ctx, exps, Config{Seed: 1})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("expired context: run took %v, want prompt return", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: err = %v, want DeadlineExceeded", err)
	}
	if bodyRan {
		t.Error("expired context: experiment body still ran")
	}
	for _, res := range results {
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Errorf("%s: Err = %v, want DeadlineExceeded", res.ID, res.Err)
		}
	}

	// All workers must have drained: allow a little scheduler slack, then
	// require the goroutine count back at (or below) the starting level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

func TestRunnerTimeout(t *testing.T) {
	exps := []Experiment{
		fakeExp("SLOW", func(ctx context.Context, _ Config) (Result, error) {
			<-ctx.Done()
			return Result{}, ctx.Err()
		}),
	}
	r := &Runner{Workers: 1, Timeout: 20 * time.Millisecond}
	_, err := r.Run(context.Background(), exps, Config{Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Timeout: err = %v, want DeadlineExceeded", err)
	}
}

func TestRunnerFailFast(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		fakeExp("BAD", func(context.Context, Config) (Result, error) {
			return Result{}, boom
		}),
		fakeExp("NEXT", func(context.Context, Config) (Result, error) {
			return Result{Text: "ok"}, nil
		}),
	}

	// Fail-fast on one worker: the failure cancels the run before NEXT
	// starts, so NEXT is marked with the cancellation error.
	r := &Runner{Workers: 1, FailFast: true}
	results, err := r.Run(context.Background(), exps, Config{Seed: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("fail-fast: err = %v, want boom", err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("fail-fast: NEXT.Err = %v, want Canceled", results[1].Err)
	}

	// Collect-all: NEXT still runs and only BAD's error is reported.
	r = &Runner{Workers: 1}
	results, err = r.Run(context.Background(), exps, Config{Seed: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("collect-all: err = %v, want boom", err)
	}
	if results[1].Err != nil || results[1].Text != "ok" {
		t.Errorf("collect-all: NEXT = {Text:%q Err:%v}, want it to run clean", results[1].Text, results[1].Err)
	}
	if !strings.Contains(err.Error(), "BAD") {
		t.Errorf("collect-all: joined error %q does not name the failing id", err)
	}
}

// TestRunnerRecoversPanics: a panicking experiment body must become that
// experiment's Result.Err — with a stack snippet — while the rest of the
// pool keeps running to completion.
func TestRunnerRecoversPanics(t *testing.T) {
	exps := []Experiment{
		fakeExp("OK1", func(context.Context, Config) (Result, error) {
			return Result{Text: "ok1"}, nil
		}),
		fakeExp("BOOM", func(context.Context, Config) (Result, error) {
			panic("index out of range [99] with length 3")
		}),
		fakeExp("OK2", func(context.Context, Config) (Result, error) {
			return Result{Text: "ok2"}, nil
		}),
	}
	r := &Runner{Workers: 2}
	results, err := r.Run(context.Background(), exps, Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "BOOM") {
		t.Fatalf("joined error %v does not name the panicking experiment", err)
	}
	if results[0].Err != nil || results[0].Text != "ok1" {
		t.Errorf("OK1 disturbed by sibling panic: %+v", results[0])
	}
	if results[2].Err != nil || results[2].Text != "ok2" {
		t.Errorf("OK2 disturbed by sibling panic: %+v", results[2])
	}
	perr := results[1].Err
	if perr == nil {
		t.Fatal("BOOM has no error")
	}
	msg := perr.Error()
	if !strings.Contains(msg, "experiment panicked") || !strings.Contains(msg, "index out of range") {
		t.Errorf("panic error lacks the panic value: %q", msg)
	}
	if !strings.Contains(msg, "goroutine") && !strings.Contains(msg, "runner") {
		t.Errorf("panic error lacks a stack snippet: %q", msg)
	}
	if results[1].Duration <= 0 {
		t.Error("panicking experiment not stamped with a duration")
	}

	// FailFast must also survive a panic: it is a failure like any other.
	r = &Runner{Workers: 1, FailFast: true}
	results, err = r.Run(context.Background(), exps[1:], Config{Seed: 1})
	if err == nil {
		t.Fatal("fail-fast run with panic returned nil error")
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("fail-fast after panic: OK2.Err = %v, want Canceled", results[1].Err)
	}
}

func TestRunnerStampsResults(t *testing.T) {
	exps := []Experiment{
		fakeExp("X1", func(ctx context.Context, cfg Config) (Result, error) {
			time.Sleep(time.Millisecond)
			return Result{Text: "body", Payload: map[string]any{"k": 1}}, nil
		}),
	}
	r := &Runner{}
	results, err := r.Run(context.Background(), exps, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.ID != "X1" {
		t.Errorf("ID = %q", res.ID)
	}
	if want := (Config{Seed: 7}).SeedFor("X1"); res.Seed != want {
		t.Errorf("Seed = %d, want %d", res.Seed, want)
	}
	if res.Text != "body" || res.Payload["k"] != 1 {
		t.Errorf("Text/Payload not propagated: %+v", res)
	}
	if res.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", res.Duration)
	}
	if res.Start.IsZero() {
		t.Error("Start not stamped")
	}
}

// TestRunnerInjectedClock: with a FakeClock the runner's timestamps become
// fully deterministic — the satellite contract replacing ad-hoc time.Now.
func TestRunnerInjectedClock(t *testing.T) {
	epoch := time.Unix(1_000_000, 0)
	clock := &obs.FakeClock{T: epoch, Step: time.Second}
	exps := []Experiment{
		fakeExp("X1", func(ctx context.Context, cfg Config) (Result, error) {
			return Result{Text: "a"}, nil
		}),
	}
	r := &Runner{Workers: 1, Clock: clock}
	results, err := r.Run(context.Background(), exps, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With no trace sink the only clock reads are the Start and Duration
	// stamps, each advancing the fake clock by one Step: Start is the epoch
	// and Duration exactly one Step.
	if got := results[0].Start; !got.Equal(epoch) {
		t.Errorf("Start = %v, want %v", got, epoch)
	}
	if got := results[0].Duration; got != time.Second {
		t.Errorf("Duration = %v, want exactly 1s from the fake clock", got)
	}
}

// TestRunnerMetricsAndTrace: the body's context carries a fresh registry;
// its snapshot lands in Result.Metrics, merges into the run-level registry,
// and spans reach the shared trace sink.
func TestRunnerMetricsAndTrace(t *testing.T) {
	var buf bytes.Buffer
	runReg := obs.New()
	exps := []Experiment{
		fakeExp("X1", func(ctx context.Context, cfg Config) (Result, error) {
			reg := obs.FromContext(ctx)
			if reg == nil {
				t.Error("no registry in experiment context")
			}
			reg.Counter("test.events").Add(5)
			return Result{}, nil
		}),
		fakeExp("X2", func(ctx context.Context, cfg Config) (Result, error) {
			obs.FromContext(ctx).Counter("test.events").Add(2)
			return Result{}, nil
		}),
	}
	r := &Runner{Workers: 2, Obs: runReg, Trace: obs.NewTraceSink(&buf)}
	results, err := r.Run(context.Background(), exps, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Metrics.Counters["test.events"]; got != 5 {
		t.Errorf("X1 metrics counter = %d, want 5", got)
	}
	if got := results[1].Metrics.Counters["test.events"]; got != 2 {
		t.Errorf("X2 metrics counter = %d, want 2", got)
	}
	s := runReg.Snapshot()
	if got := s.Counters["test.events"]; got != 7 {
		t.Errorf("run-level merged counter = %d, want 7", got)
	}
	if got := s.Counters["runner.completed"]; got != 2 {
		t.Errorf("runner.completed = %d, want 2", got)
	}
	if got := s.Counters["runner.experiments"]; got != 2 {
		t.Errorf("runner.experiments = %d, want 2", got)
	}
	if err := r.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	if !strings.Contains(trace, `"experiment"`) || !strings.Contains(trace, `"X1"`) {
		t.Errorf("trace missing experiment spans:\n%s", trace)
	}
}
