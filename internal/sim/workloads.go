package sim

import (
	"math/rand"

	"universalnet/internal/graph"
)

// The workloads below are the computations guests execute in the
// experiments. MixMod is the default for correctness checks because every
// state bit depends on the entire t-neighborhood after t steps, so any
// simulation error corrupts the checksum.

// Broadcast floods a marker from the given source: a processor's state
// becomes 1 as soon as it or any neighbor is 1. Completion time equals the
// source's eccentricity — used by the information-spreading experiments.
func Broadcast(g *graph.Graph, source int) *Computation {
	init := make([]State, g.N())
	init[source] = 1
	step := func(_ int, self State, neighbors []State) State {
		if self == 1 {
			return 1
		}
		for _, s := range neighbors {
			if s == 1 {
				return 1
			}
		}
		return 0
	}
	c, err := NewComputation(g, init, step, "broadcast")
	if err != nil {
		panic(err)
	}
	return c
}

// MixMod is a chaotic mixing computation: next = a·self + Σ neighbors + i
// (mod 2^64, via natural wraparound), seeded with random initial states.
// Every output bit depends on the full t-neighborhood, making it the
// canonical correctness workload for simulation checks.
func MixMod(g *graph.Graph, rng *rand.Rand) *Computation {
	init := make([]State, g.N())
	for i := range init {
		init[i] = State(rng.Uint64())
	}
	const a = 6364136223846793005 // Knuth MMIX multiplier
	step := func(i int, self State, neighbors []State) State {
		x := uint64(self) * a
		for _, s := range neighbors {
			x += uint64(s)
		}
		return State(x + uint64(i) + 1442695040888963407)
	}
	c, err := NewComputation(g, init, step, "mix-mod")
	if err != nil {
		panic(err)
	}
	return c
}

// RandomInit returns n random states from rng.
func RandomInit(n int, rng *rand.Rand) []State {
	init := make([]State, n)
	for i := range init {
		init[i] = State(rng.Uint64())
	}
	return init
}
