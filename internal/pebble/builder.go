package pebble

import (
	"fmt"

	"universalnet/internal/graph"
)

// BuildEmbeddingProtocol constructs a simulation protocol in the style of
// Theorem 2.1: guest processors are statically mapped onto host processors
// by the assignment f (f[i] = host of guest i); each guest step is simulated
// by a generation phase (each host generates the new pebbles of its guests,
// one per host step) followed by a distribution phase (each new pebble is
// copied along shortest host paths to the hosts of all guest neighbors,
// store-and-forward, one operation per processor per step).
//
// If f is nil, a balanced round-robin assignment i ↦ i mod m is used.
// The returned protocol passes Validate; its Inefficiency() is the measured
// k of the run.
func BuildEmbeddingProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	return materializePlan(guest, host, f, T, phasedRule)
}

// phasedRule schedules each distribution phase by rescanning the relation
// in order every host step: a task whose pebble and next hop are both free
// moves one hop toward its destination.
func phasedRule(p *embedPlan, sink StepSink) error {
	n, m := p.n, p.m
	at := make([]int32, len(p.relDst)) // host currently holding task k's copy
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	var ops []Op
	var err error
	for t := 1; t <= p.T; t++ {
		if ops, err = p.emitGeneration(ops, t, sink); err != nil {
			return err
		}
		if t == p.T {
			break // final pebbles need not be distributed
		}
		for i := 0; i < n; i++ {
			for k := p.relOff[i]; k < p.relOff[i+1]; k++ {
				at[k] = int32(p.f[i])
			}
		}
		guard := 0
		for remaining := len(at); remaining > 0; {
			guard++
			if guard > 16*(m+n)*(p.maxLoad+1) {
				return fmt.Errorf("pebble: distribution stalled at guest step %d", t)
			}
			busyEpoch++
			ops = ops[:0]
			for i := 0; i < n; i++ {
				pb := Type{P: i, T: t}
				for k := p.relOff[i]; k < p.relOff[i+1]; k++ {
					q, dst := at[k], p.relDst[k]
					if q == dst || busyStamp[q] == busyEpoch {
						continue
					}
					v := p.nhop[dst][q]
					if busyStamp[v] == busyEpoch {
						continue
					}
					busyStamp[q] = busyEpoch
					busyStamp[v] = busyEpoch
					ops = append(ops, Op{Kind: Send, Proc: int(q), Pebble: pb, Peer: int(v)})
					ops = append(ops, Op{Kind: Receive, Proc: int(v), Pebble: pb, Peer: int(q)})
					at[k] = v
					if v == dst {
						remaining--
					}
				}
			}
			if len(ops) == 0 {
				return fmt.Errorf("pebble: no progress in distribution at guest step %d", t)
			}
			if err := sink.AppendStep(ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// BalancedAssignment returns the canonical load-balanced map f of
// Theorem 2.1's proof: guest i to host i mod m; every host receives at most
// ⌈n/m⌉ guests.
func BalancedAssignment(n, m int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = i % m
	}
	return f
}

// LoadOf returns the per-host guest counts of an assignment.
func LoadOf(f []int, m int) []int {
	load := make([]int, m)
	for _, q := range f {
		load[q]++
	}
	return load
}

// MaxLoad returns the largest entry of LoadOf.
func MaxLoad(f []int, m int) int {
	max := 0
	for _, l := range LoadOf(f, m) {
		if l > max {
			max = l
		}
	}
	return max
}

// RandomizedAssignment assigns guests to hosts by a seeded shuffle of the
// balanced assignment, decorrelating guest structure from host locality.
func RandomizedAssignment(n, m int, seed int64) []int {
	f := BalancedAssignment(n, m)
	// Fisher–Yates with a small deterministic LCG to avoid importing rand
	// here; assignments only need decorrelation, not statistical quality.
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(k int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(k))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		f[i], f[j] = f[j], f[i]
	}
	return f
}

// FragmentPickers: strategies for choosing b_i among the generators.

// PickLightest returns a picker that chooses the generator holding the
// fewest time-t₀ pebbles — the choice that makes |D_i| small, mirroring the
// Main Lemma's part (3).
func (st *State) PickLightest(t0 int) func(i int, gens []int) int {
	return func(_ int, gens []int) int {
		best, bestLoad := 0, -1
		for k, q := range gens {
			load := st.guestsOnCount(q, t0)
			if bestLoad < 0 || load < bestLoad {
				best, bestLoad = k, load
			}
		}
		return best
	}
}
