package pebble

import (
	"fmt"
	"slices"

	"universalnet/internal/graph"
)

// BuildPipelinedProtocol is the optimized variant of
// BuildEmbeddingProtocol: instead of strictly alternating a generation
// phase and a distribution phase per guest step, every host processor
// greedily performs, each host step, whichever operation is ready —
// generating the next pebble one of its guests is ready for, or forwarding
// a pending transfer. Pebbles of guest step t start moving while other
// processors are still generating theirs, and generation of step t+1 starts
// as soon as a processor's own inputs have arrived. The resulting protocols
// have strictly smaller host-step counts (lower inefficiency k) than the
// phase-based builder on every non-trivial instance; the E15 ablation
// quantifies the gap.
func BuildPipelinedProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	return materializePlan(guest, host, f, T, pipelinedRule)
}

// StreamPipelinedProtocol emits the pipelined greedy schedule through sink,
// one host step at a time. The ops slice passed to the sink is reused
// across steps.
func StreamPipelinedProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	return streamPlan(guest, host, f, T, pipelinedRule, sink)
}

// pipelinedRule runs the whole schedule as one greedy: each host step,
// pending transfers move farthest-first, then every processor left idle
// generates the next pebble of its first ready guest. A transfer task
// (pebble, current host, destination) is created for every relation entry
// of a guest when that guest's pebble of step t < T is generated.
func pipelinedRule(p *embedPlan, sink StepSink) error {
	n, m, T := p.n, p.m, p.T
	type task struct {
		pb      Type
		at, dst int32
	}

	// Readiness is read off the rule engine the protocol is validated
	// with, so a builder bug surfaces as an illegal step, not a bad
	// schedule.
	v := newRuleEngine(Spec{Guest: p.guest, Host: p.host, T: T})
	nextGen := make([]int, n) // nextGen[i] = t of the next pebble to generate
	for i := range nextGen {
		nextGen[i] = 1
	}
	canGen := func(i int) bool {
		t := nextGen[i]
		if t > T {
			return false
		}
		q, base := p.f[i], (t-1)*n
		if !v.bit(q, base+i) {
			return false
		}
		for _, j := range p.guest.Neighbors(i) {
			if !v.bit(q, base+j) {
				return false
			}
		}
		return true
	}

	var tasks []task
	var ops, gains []Op // gains: generation ops applied after scheduling decisions
	busy := make([]bool, m)
	remainingGen := n * T
	guard := 0
	maxSteps := 64 * T * (n + m) * (p.host.Diameter() + 2)

	for remainingGen > 0 || len(tasks) > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("pebble: pipelined builder exceeded %d steps", maxSteps)
		}
		clear(busy)
		ops, gains = ops[:0], gains[:0]

		// Pass 1: transfers, farthest-first (the arbitration rule the greedy
		// router uses): tasks with more remaining distance get first pick of
		// links, keeping the communication critical path moving. Tasks still
		// under way are compacted in place.
		slices.SortStableFunc(tasks, func(a, b task) int {
			return p.dist[b.dst][b.at] - p.dist[a.dst][a.at]
		})
		pending := tasks[:0]
		for _, tk := range tasks {
			if busy[tk.at] {
				pending = append(pending, tk)
				continue
			}
			hop := p.nhop[tk.dst][tk.at]
			if busy[hop] {
				pending = append(pending, tk)
				continue
			}
			busy[tk.at] = true
			busy[hop] = true
			ops = append(ops, Op{Kind: Send, Proc: int(tk.at), Pebble: tk.pb, Peer: int(hop)})
			ops = append(ops, Op{Kind: Receive, Proc: int(hop), Pebble: tk.pb, Peer: int(tk.at)})
			if tk.at = hop; tk.at != tk.dst {
				pending = append(pending, tk)
			}
		}
		tasks = pending

		// Pass 2: generations on processors the transfer pass left idle.
		for q := 0; q < m; q++ {
			if busy[q] {
				continue
			}
			for _, gi := range p.guestIDs[p.guestOff[q]:p.guestOff[q+1]] {
				i := int(gi)
				if canGen(i) {
					t := nextGen[i]
					gains = append(gains, Op{Kind: Generate, Proc: q, Pebble: Type{P: i, T: t}})
					busy[q] = true
					nextGen[i]++
					remainingGen--
					if t < T {
						for _, dst := range p.relDst[p.relOff[i]:p.relOff[i+1]] {
							tasks = append(tasks, task{pb: Type{P: i, T: t}, at: int32(q), dst: dst})
						}
					}
					break
				}
			}
		}
		ops = append(ops, gains...)
		if len(ops) == 0 {
			return fmt.Errorf("pebble: pipelined builder stalled (remaining generations %d, tasks %d)",
				remainingGen, len(tasks))
		}
		if err := v.applyStep(ops); err != nil {
			return fmt.Errorf("pebble: pipelined builder emitted illegal step (bug): %w", err)
		}
		if err := sink.AppendStep(ops); err != nil {
			return err
		}
	}
	return nil
}
