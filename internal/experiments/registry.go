package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"universalnet/internal/obs"
)

// Config carries the suite-wide inputs of a run. Every experiment derives
// its own seed from the root seed (SeedFor), so the execution order —
// sequential or parallel, full suite or subset — never changes an
// experiment's output.
type Config struct {
	// Seed is the root seed of the run; per-experiment seeds are derived
	// from it with SeedFor.
	Seed int64
	// FaultScenario optionally names a faults.Scenario preset; experiments
	// wired for fault injection (currently E23) run under it instead of
	// their default fault sweep. Empty means no override.
	FaultScenario string
	// FaultSeed drives the scenario's deterministic fault schedule.
	FaultSeed int64
}

// splitmix64 is the SplitMix64 mixing function (Steele et al.) — a
// bijective avalanche mix used to decorrelate derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SeedFor derives the per-experiment seed for id from the root seed by
// folding the id bytes through SplitMix64. The derivation is pure, so
// running E7 alone, in a subset, or in a parallel suite always hands it
// the same seed.
func (c Config) SeedFor(id string) int64 {
	h := splitmix64(uint64(c.Seed))
	for _, b := range []byte(id) {
		h = splitmix64(h ^ uint64(b))
	}
	// Keep derived seeds non-negative: rand.NewSource treats the seed as a
	// plain int64 and several experiment parameters add small offsets.
	return int64(h &^ (1 << 63))
}

// Result is the machine-readable outcome of one experiment run.
type Result struct {
	ID       string         // experiment id, e.g. "E7"
	Seed     int64          // derived per-experiment seed actually used
	Text     string         // rendered table / summary, as printed by the report
	Payload  map[string]any // structured rows/results for JSON consumers
	Start    time.Time      // when the Run call began (runner clock)
	Duration time.Duration  // wall-clock time of the Run call (runner clock)
	Metrics  *obs.Snapshot  // frozen per-experiment metrics; nil only when the body never ran
	Err      error          // non-nil if the experiment failed (or was canceled)
}

// Experiment is one registered entry of the evaluation suite: an id, the
// paper claim it measures, the modules it exercises, and a runnable body.
type Experiment struct {
	ID      string
	Claim   string
	Modules string
	Run     func(ctx context.Context, cfg Config) (Result, error)
}

// Registry returns the full evaluation suite (E1–E24 plus E26; E25 is the
// CI-only chaos soak) with the default
// parameters of EXPERIMENTS.md, in id order. The slice is freshly built on
// every call, so callers may reorder or subset it freely.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:      "E1",
			Claim:   "Thm 2.1: butterfly hosts simulate any guest with slowdown O((n/m)·log m)",
			Modules: "universal,sim,topology,routing",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E1UpperBound(ctx, 512, 4, 3, []int{3, 4, 5, 6}, cfg.SeedFor("E1"))
				if err != nil {
					return Result{}, err
				}
				text := E1Table(512, rows).String()
				if fig, err := PlotE1(512, rows); err == nil {
					text += "\n\n" + fig
				}
				return Result{Text: text, Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E2",
			Claim:   "Thm 3.1: the inefficiency lower bound k = Ω(log m)",
			Modules: "core",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E2LowerBoundCurve([]float64{10, 16, 24, 32, 48, 64, 1e6, 2e6, 4e6})
				if err != nil {
					return Result{}, err
				}
				text := E2Table(rows).String()
				if fig, err := PlotE2(rows); err == nil {
					text += "\n\n" + fig
				}
				return Result{Text: text, Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E3",
			Claim:   "Fig. 1 / Lemma 3.10: dependency trees are binary, depth O(a), size O(a²)",
			Modules: "depgraph,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E3DependencyTrees([]int{4, 6, 8}, cfg.SeedFor("E3"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E3Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E4",
			Claim:   "Lemma 3.12: critical times |Z_S| ≥ (T−D)/2 and the root-weight inequalities",
			Modules: "pebble,depgraph,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				res, err := E4CriticalTimes(64, 4, 3, 16, 24, cfg.SeedFor("E4"))
				if err != nil {
					return Result{}, err
				}
				text := fmt.Sprintf("E4 (Lemma 3.12): |Z_S|=%d ≥ %d; inequalities violated: (1)=%v (2)=%v; k=%.1f",
					res.ZSize, res.ZLowerBound, res.Ineq1Violated, res.Ineq2Violated, res.K)
				return Result{Text: text, Payload: map[string]any{"result": res}}, nil
			},
		},
		{
			ID:      "E5",
			Claim:   "Lemma 3.15 / Prop. 3.17: the generating-pebble frontier forces time gaps",
			Modules: "pebble,expander,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				res, err := E5Frontier(64, 4, 3, 8, 0.4, cfg.SeedFor("E5"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E5Table(res).String(), Payload: map[string]any{"result": res}}, nil
			},
		},
		{
			ID:      "E6",
			Claim:   "§1 remark: tree-cached host of size 2^{O(t)}·n gives constant slowdown c+2",
			Modules: "universal,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E6TreeCache(8, 2, []int{2, 3, 4, 5}, cfg.SeedFor("E6"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E6Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E7",
			Claim:   "§1 upper trade-off: s·log ℓ = O(log n), both endpoints realized",
			Modules: "pebble,universal,sim,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E7Tradeoff(ctx, 24, 3, 3, 3, 6, cfg.SeedFor("E7"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E7Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E8",
			Claim:   "§2 routing substrate: offline Beneš O(log m) vs online greedy; h–h → ≤h permutations",
			Modules: "routing",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E8OfflineRouting(ctx, []int{3, 4, 5, 6, 7}, 3, cfg.SeedFor("E8"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E8Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E9",
			Claim:   "Lemma 3.3: fragment multiplicity X ≤ Π C(|D_i|, c/2) via edge inclusion",
			Modules: "pebble,core,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				res, err := E9FragmentMultiplicity(ctx, 64, 4, 3, 16, 6, 3, cfg.SeedFor("E9"))
				if err != nil {
					return Result{}, err
				}
				text := fmt.Sprintf("E9 (Lemma 3.3): edge inclusion=%v; max|D_i|=%d; log2 X ≤ %.1f vs log2|U[G0]| ≥ %.1f",
					res.EdgeInclOK, res.MaxD, res.Log2XBound, res.Log2GuestLB)
				return Result{Text: text, Payload: map[string]any{"result": res}}, nil
			},
		},
		{
			ID:      "E10",
			Claim:   "Def. 3.9: G₀ has degree ≤ 12 and certified (α,β) vertex expansion",
			Modules: "expander,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E10G0Expansion(ctx, []int{4, 6, 8}, 0.25, cfg.SeedFor("E10"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E10Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E11",
			Claim:   "§1 embeddings: static embeddings pay Ω(log n) dilation where simulations do not",
			Modules: "embedding,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E11Embeddings(ctx, 64, 4, cfg.SeedFor("E11"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E11Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E12",
			Claim:   "Ablation: the Thm 2.1 slowdown across routing substrates",
			Modules: "routing,universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E12RouterAblation(ctx, 128, 4, 3, cfg.SeedFor("E12"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E12Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E13",
			Claim:   "Ablation: static placement matters only for local guests — universal hosts must route",
			Modules: "embedding,pebble,universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E13AssignmentAblation(ctx, 64, 3, cfg.SeedFor("E13"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E13Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E14",
			Claim:   "§2: oblivious complete-network simulation keeps the (n/m)·log m shape online",
			Modules: "universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E14ObliviousComplete(256, 3, []int{3, 4, 5}, cfg.SeedFor("E14"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E14Table(256, rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E15",
			Claim:   "Ablation: protocol builders — phase-based vs pipelined vs multicast",
			Modules: "pebble,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E15BuilderAblation(ctx, cfg.SeedFor("E15"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E15Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E16",
			Claim:   "§1: replication (dynamic embedding) helps iff m > n",
			Modules: "universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E16Redundancy(48, 3, cfg.SeedFor("E16"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E16Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E17",
			Claim:   "§1 previous work: bisection/bandwidth bounds collapse on expander hosts; counting does not",
			Modules: "expander,core,universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E17Baselines(ctx, 256, 3, cfg.SeedFor("E17"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E17Table(256, rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E18",
			Claim:   "Thm 2.1 proof: the offline Beneš construction vs the online butterfly",
			Modules: "universal,routing,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E18OfflineTheorem21(ctx, 128, 3, []int{3, 4, 5}, cfg.SeedFor("E18"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E18Table(128, rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E19",
			Claim:   "§2: route_G(h) across topologies — the slowdown's raw material",
			Modules: "routing,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E19RouteScaling(ctx, []int{1, 2, 4, 8}, 3, cfg.SeedFor("E19"))
				if err != nil {
					return Result{}, err
				}
				text := E19Table(rows).String()
				if fig, err := PlotE19(rows); err == nil {
					text += "\n\n" + fig
				}
				return Result{Text: text, Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E20",
			Claim:   "[17]: butterfly ↔ multibutterfly simulation asymmetry",
			Modules: "topology,universal,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E20Multibutterfly(ctx, 4, 3, cfg.SeedFor("E20"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E20Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E21",
			Claim:   "Ablation: protocol minimization — removable no-op traffic per builder",
			Modules: "pebble,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E21MinimizerAblation(ctx, cfg.SeedFor("E21"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E21Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E22",
			Claim:   "[15] remark: polynomial vs exponential spreading classifies the guests",
			Modules: "graph,topology",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E22Spreading(ctx, 6, cfg.SeedFor("E22"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E22Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E23",
			Claim:   "Dynamic trade-off: crashing k hosts walks m → m−k; recovery is checked, never silent",
			Modules: "faults,universal,routing,sim",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E23FaultTolerance(ctx, 24, 3, 6, cfg.SeedFor("E23"), cfg.FaultScenario, cfg.FaultSeed)
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E23Table(rows).String(), Payload: map[string]any{
					"rows":     rows,
					"counters": E23Counters(rows).Map(),
				}}, nil
			},
		},
		{
			ID:      "E24",
			Claim:   "Streaming pipeline: slowdown O((n/m)·log m) holds while peak protocol memory stays bounded by the chunk budget, not by T'·ops",
			Modules: "pebble,universal,topology,obs",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E24StreamingScale(ctx, []int{2000, 6000}, 3, 4, 2, 4, cfg.SeedFor("E24"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E24Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
		{
			ID:      "E26",
			Claim:   "Red-blue surface (arXiv:2409.03898): shrinking red memory strictly grows I/O while compute stays fixed; Belady floors every budget",
			Modules: "redblue,pebble,topology,obs",
			Run: func(ctx context.Context, cfg Config) (Result, error) {
				rows, err := E26RedBlueSurface(ctx, 48, 2, 3, []int{9, 16}, []int{0, 2, 4, -1}, cfg.SeedFor("E26"))
				if err != nil {
					return Result{}, err
				}
				return Result{Text: E26Table(rows).String(), Payload: map[string]any{"rows": rows}}, nil
			},
		},
	}
}

// Select returns the registry entries whose IDs appear in ids (case-
// insensitive), in registry order. Empty ids selects the whole suite.
// Unknown or duplicate ids are an error — a typo must not silently shrink
// the suite.
func Select(ids []string) ([]Experiment, error) {
	all := Registry()
	if len(ids) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if want[id] {
			return nil, fmt.Errorf("experiments: duplicate id %q", id)
		}
		want[id] = true
	}
	var sel []Experiment
	for _, e := range all {
		if want[e.ID] {
			sel = append(sel, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown id(s) %s (want E1..E24 or E26; E25 is the CI-only chaos soak)", strings.Join(unknown, ","))
	}
	return sel, nil
}
