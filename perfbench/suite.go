package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"universalnet/internal/experiments"
)

// setupReps is how many times the suite's set-up (selecting the registered
// experiments) is repeated per measured phase: once takes microseconds, so
// one reading would be timer noise.
const setupReps = 200

// suite runs the registered experiments with the workload seed as the
// runner's root seed.
type suite struct {
	seed int64
	// textHash is each experiment's Text hash from the first measured
	// phase; every later phase must reproduce it.
	textHash map[string]uint64
	ids      []string
	// layerFailed counts failed checks in the per-layer sweeps.
	layerFailed int
}

func newSuite(seed int64) *suite {
	return &suite{seed: seed, textHash: map[string]uint64{}}
}

func hashText(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (s *suite) iterate(tr *tracer, parent *span) (iteration, error) {
	sp := tr.begin("suite.setup", parent)
	t0 := time.Now()
	var exps []experiments.Experiment
	for i := 0; i < setupReps; i++ {
		var err error
		if exps, err = experiments.Select(nil); err != nil {
			sp.finish()
			return iteration{}, err
		}
	}
	setup := time.Since(t0) / setupReps
	sp.finish()

	runner := &experiments.Runner{Workers: 1}
	sp = tr.begin("experiments.run", parent)
	ph := beginPhase()
	// Run's joined error repeats the per-result errors checked below.
	results, _ := runner.Run(context.Background(), exps, experiments.Config{Seed: s.seed})
	cost := ph.end()
	sp.finish()

	it := iteration{setup: setup, cost: cost, ops: float64(len(results)), attempted: len(results)}
	for _, r := range results {
		// The runner stamps each experiment's start and duration; they
		// become child spans of the run.
		tr.record("experiments."+r.ID, sp, r.Start, r.Duration)
		it.lat = append(it.lat, float64(r.Duration)/1e6)
		if !s.checkResult(r) {
			it.failed++
		}
	}
	return it, nil
}

// checkResult fails an experiment that returned an error or whose Text
// differs from the first phase's.
func (s *suite) checkResult(r experiments.Result) bool {
	if r.Err != nil {
		fmt.Printf("# suite: %s failed: %v\n", r.ID, r.Err)
		return false
	}
	h := hashText(r.Text)
	first, ok := s.textHash[r.ID]
	if !ok {
		s.textHash[r.ID] = h
		s.ids = append(s.ids, r.ID)
		return true
	}
	if h != first {
		fmt.Printf("# suite: %s text hash %016x, first run %016x\n", r.ID, h, first)
		return false
	}
	return true
}

// verify has nothing left to check: every phase is compared with the
// first as it completes. It reports the per-layer sweeps' failures.
func (s *suite) verify(*tracer) (int, error) { return s.layerFailed, nil }

// suiteHash combines the experiments' Text hashes in id order, so two runs
// of one seed can be compared by one number.
func (s *suite) suiteHash() uint64 {
	h := fnv.New64a()
	for _, id := range s.ids {
		fmt.Fprintf(h, "%s=%016x;", id, s.textHash[id])
	}
	return h.Sum64()
}

func (s *suite) describe() []string {
	return []string{
		fmt.Sprintf("%d experiments, Runner{Workers: 1}, root seed %d; text hash %016x", len(s.ids), s.seed, s.suiteHash()),
		"experiments fix their own pipeline parameters: build/validate shards n/a",
	}
}

// layers runs the suite once and reports each experiment's duration as the
// runner measured it.
func (s *suite) layers(tr *tracer) ([]metric, error) {
	exps, err := experiments.Select(nil)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("experiments.run", nil)
	results, _ := (&experiments.Runner{Workers: 1}).Run(context.Background(), exps, experiments.Config{Seed: s.seed})
	sp.finish()
	var ms []metric
	for _, r := range results {
		tr.record("experiments."+r.ID, sp, r.Start, r.Duration)
		if !s.checkResult(r) {
			s.layerFailed++
		}
		ms = append(ms, metric{name: "experiments." + r.ID + "_s", value: r.Duration.Seconds(), unit: "s"})
	}
	return ms, nil
}
