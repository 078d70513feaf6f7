// Package sim provides the synchronous network-computation engine the
// simulation results quantify over: each processor P_i of a guest network G
// holds a configuration, and the configuration at time t+1 is a function of
// its own configuration and those of all its neighbors at time t — exactly
// the dependency structure of Definition 3.7. The engine produces full
// traces so that universal-simulation implementations can be checked for
// step-by-step equivalence against direct execution.
package sim

import (
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
)

// State is one processor configuration. The pebble-game model transmits a
// full configuration in one step, so a compact word-sized state loses no
// generality for the experiments.
type State uint64

// Transition computes processor i's next configuration from its own state
// and the states of its neighbors (in adjacency order). Implementations
// must be deterministic and must not retain the neighbors slice.
type Transition func(i int, self State, neighbors []State) State

// Computation couples a guest network with an initial configuration and a
// transition function.
type Computation struct {
	G    *graph.Graph
	Init []State
	Step Transition
	Name string
	// Obs, when non-nil, receives engine metrics (runs, steps executed,
	// state updates). Nil — the default — costs the
	// engine nothing beyond a nil-check per run.
	Obs *obs.Registry
}

// NewComputation validates the sizes and returns a Computation.
func NewComputation(g *graph.Graph, init []State, step Transition, name string) (*Computation, error) {
	if len(init) != g.N() {
		return nil, fmt.Errorf("sim: %d initial states for %d processors", len(init), g.N())
	}
	if step == nil {
		return nil, fmt.Errorf("sim: nil transition")
	}
	return &Computation{G: g, Init: append([]State(nil), init...), Step: step, Name: name}, nil
}

// Trace records the configurations of every processor at every time step of
// a T-step run: States[t][i] is processor i's configuration at guest time t,
// for t = 0..T.
type Trace struct {
	States [][]State
}

// T returns the number of computation steps recorded.
func (tr *Trace) T() int { return len(tr.States) - 1 }

// N returns the number of processors.
func (tr *Trace) N() int {
	if len(tr.States) == 0 {
		return 0
	}
	return len(tr.States[0])
}

// At returns processor i's configuration at time t.
func (tr *Trace) At(i, t int) State { return tr.States[t][i] }

// Final returns the configurations after the last step.
func (tr *Trace) Final() []State { return tr.States[len(tr.States)-1] }

// Checksum folds the whole trace into one value (FNV-1a), for cheap
// equivalence assertions between direct and simulated executions.
func (tr *Trace) Checksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for _, row := range tr.States {
		for _, s := range row {
			mix(uint64(s))
		}
	}
	return h
}

// Run executes T steps and returns the full trace.
func (c *Computation) Run(T int) (*Trace, error) {
	if T < 0 {
		return nil, fmt.Errorf("sim: negative step count %d", T)
	}
	n := c.G.N()
	defer c.observeRun(T)()
	tr := &Trace{States: make([][]State, T+1)}
	tr.States[0] = append([]State(nil), c.Init...)
	nbuf := make([]State, 0, c.G.MaxDegree())
	for t := 0; t < T; t++ {
		cur := tr.States[t]
		next := make([]State, n)
		for i := 0; i < n; i++ {
			nbuf = nbuf[:0]
			for _, w := range c.G.Neighbors(i) {
				nbuf = append(nbuf, cur[w])
			}
			next[i] = c.Step(i, cur[i], nbuf)
		}
		tr.States[t+1] = next
	}
	return tr, nil
}

// VerifyTrace checks that a trace is a legal execution of the computation:
// correct dimensions, matching initial state, and every step consistent with
// the transition function. Used to validate traces reconstructed from
// universal-simulation runs.
func (c *Computation) VerifyTrace(tr *Trace) error {
	n := c.G.N()
	if tr.N() != n {
		return fmt.Errorf("sim: trace has %d processors, want %d", tr.N(), n)
	}
	for i, s := range c.Init {
		if tr.States[0][i] != s {
			return fmt.Errorf("sim: initial state of processor %d is %d, want %d", i, tr.States[0][i], s)
		}
	}
	nbuf := make([]State, 0, c.G.MaxDegree())
	for t := 0; t < tr.T(); t++ {
		cur := tr.States[t]
		for i := 0; i < n; i++ {
			nbuf = nbuf[:0]
			for _, w := range c.G.Neighbors(i) {
				nbuf = append(nbuf, cur[w])
			}
			want := c.Step(i, cur[i], nbuf)
			if got := tr.States[t+1][i]; got != want {
				return fmt.Errorf("sim: processor %d at step %d has state %d, want %d", i, t+1, got, want)
			}
		}
	}
	return nil
}

// observeRun records one engine run on c.Obs and returns the deferred span
// closer. All metric work happens here, once per run — the per-step and
// per-processor loops stay untouched, so a nil registry costs one nil-check.
// Metrics are pure functions of (n, T) and thus deterministic.
func (c *Computation) observeRun(T int) func() {
	if c.Obs == nil {
		return func() {}
	}
	n := int64(c.G.N())
	c.Obs.Counter("sim.runs").Inc()
	c.Obs.Counter("sim.steps").Add(int64(T))
	c.Obs.Counter("sim.state_updates").Add(n * int64(T))
	sp := c.Obs.StartSpan("sim.run",
		obs.KV("name", c.Name), obs.KV("n", c.G.N()), obs.KV("steps", T))
	return sp.End
}
