package routing

import (
	"math/rand"
	"testing"

	"universalnet/internal/topology"
)

func TestDeflectionRouterPermutationOnTorus(t *testing.T) {
	g, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPermutation(rand.New(rand.NewSource(1)), 64)
	r := &DeflectionRouter{Seed: 1}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 64 {
		t.Errorf("delivered %d/64", res.Delivered)
	}
	// Hot-potato never exceeds degree packets per node.
	if res.MaxQueue > 4 {
		t.Errorf("queue %d above degree", res.MaxQueue)
	}
}

func TestDeflectionRouterRejectsOverload(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	// Three packets at node 0 on a degree-2 ring violate the invariant.
	p := &Problem{N: 8, Pairs: []Pair{{0, 1}, {0, 2}, {0, 3}}}
	if _, err := (&DeflectionRouter{Seed: 1}).Route(g, p); err == nil {
		t.Error("overloaded start accepted")
	}
}

func TestDeflectionRouterSelfAndUnreachable(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{N: 8, Pairs: []Pair{{2, 2}}}
	res, err := (&DeflectionRouter{Seed: 1}).Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Steps != 0 {
		t.Errorf("self pair: %+v", res)
	}
}

func TestDeflectionSlowerOrEqualGreedy(t *testing.T) {
	// Deflection can wander; over several instances it should rarely beat
	// greedy and must always deliver.
	g, err := topology.Torus(49)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		p := RandomPermutation(rng, 49)
		dres, err := (&DeflectionRouter{Seed: int64(trial)}).Route(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if dres.Delivered != 49 {
			t.Fatalf("trial %d: delivered %d", trial, dres.Delivered)
		}
	}
}

func TestLowerBoundSteps(t *testing.T) {
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	// Single packet at distance 8.
	p := &Problem{N: 16, Pairs: []Pair{{0, 8}}}
	lb, err := LowerBoundSteps(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 8 {
		t.Errorf("distance bound = %d, want 8", lb)
	}
	// All-to-antipode: work bound dominates: 16 packets × 8 hops / 32
	// directed edges = 4 < 8 → still 8.
	pairs := make([]Pair, 16)
	for i := range pairs {
		pairs[i] = Pair{Src: i, Dst: (i + 8) % 16}
	}
	p2 := &Problem{N: 16, Pairs: pairs}
	lb2, err := LowerBoundSteps(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	if lb2 < 8 {
		t.Errorf("bound %d < 8", lb2)
	}
	// Heavy h–h load: work bound exceeds diameter.
	var heavy []Pair
	for rep := 0; rep < 8; rep++ {
		for i := range pairs {
			heavy = append(heavy, Pair{Src: i, Dst: (i + 8) % 16})
		}
	}
	p3 := &Problem{N: 16, Pairs: heavy}
	lb3, err := LowerBoundSteps(g, p3)
	if err != nil {
		t.Fatal(err)
	}
	if lb3 <= 8 {
		t.Errorf("work bound %d should exceed the distance bound", lb3)
	}
	// Measured steps respect the bound.
	res, err := (&GreedyRouter{Mode: MultiPort}).Route(g, p3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < lb3 {
		t.Errorf("router finished in %d steps below the bound %d", res.Steps, lb3)
	}
}

func TestLowerBoundStepsErrors(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{N: 4}
	if _, err := LowerBoundSteps(g, p); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestAllRoutersRespectLowerBound(t *testing.T) {
	// Every router's step count must dominate the instance lower bound
	// max(distance, total-work/capacity) — the model-independent floor.
	g, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{
		&GreedyRouter{Mode: MultiPort},
		&GreedyRouter{Mode: SinglePort},
		&GreedyRouter{Mode: MultiPort, Policy: RandomNextHop, Seed: 5},
		&DimensionOrderRouter{N: 8, Wrap: true, Mode: MultiPort},
		&ValiantRouter{Mode: MultiPort, Seed: 5},
		&DeflectionRouter{Seed: 5},
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		p := RandomPermutation(rng, 64)
		lb, err := LowerBoundSteps(g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routers {
			res, err := r.Route(g, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.Name(), err)
			}
			if res.Steps < lb {
				t.Errorf("trial %d: %s finished in %d steps, below the bound %d",
					trial, r.Name(), res.Steps, lb)
			}
		}
	}
}
