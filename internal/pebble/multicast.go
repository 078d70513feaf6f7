package pebble

import (
	"fmt"
	"slices"

	"universalnet/internal/graph"
)

// BuildMulticastProtocol is the third protocol builder: like the phase-based
// builder, but each pebble is distributed along a shortest-path tree that
// covers all of its destination hosts, so shared path prefixes carry ONE
// copy that fans out (pebbles are copyable — the model's Send keeps the
// original). Unicast builders ship a separate copy per destination; the
// multicast tree ships one per tree edge, cutting both operations and, on
// branching hosts, host steps.
func BuildMulticastProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	return materializePlan(guest, host, f, T, multicastRule)
}

// multicastRule routes along BFS-parent trees from each source host — its
// own path rule, unlike the plan's next-hop tables toward destinations.
func multicastRule(p *embedPlan, sink StepSink) error {
	n, m := p.n, p.m

	// parents[src][v] is the previous hop on a BFS shortest path src→v,
	// computed for each source host on first use.
	parents := make([][]int, m)
	parentsFrom := func(src int) []int {
		if parents[src] != nil {
			return parents[src]
		}
		parent := make([]int, m)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range p.host.Neighbors(v) {
				if parent[w] < 0 {
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		parents[src] = parent
		return parent
	}

	// The multicast trees are the same at every guest step: guest i's tree
	// is the union of shortest paths from f(i) to its relation hosts, one
	// hop per tree edge in (from, to) order. A hop becomes eligible once
	// its tail holds the pebble.
	type hop struct{ guest, from, to int }
	var hops []hop
	var edges [][2]int
	for i := 0; i < n; i++ {
		src := p.f[i]
		parent := parentsFrom(src)
		edges = edges[:0]
		for _, d := range p.relDst[p.relOff[i]:p.relOff[i+1]] {
			for v := int(d); v != src; v = parent[v] {
				edges = append(edges, [2]int{parent[v], v})
			}
		}
		slices.SortFunc(edges, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		for _, e := range slices.Compact(edges) {
			hops = append(hops, hop{guest: i, from: e[0], to: e[1]})
		}
	}

	holds := make(map[[2]int]bool) // (host, guest) → holds (P_i, t)
	done := make([]bool, len(hops))
	busy := make([]bool, m)
	var ops []Op
	var err error
	for t := 1; t <= p.T; t++ {
		if ops, err = p.emitGeneration(ops, t, sink); err != nil {
			return err
		}
		if t == p.T {
			break
		}
		clear(holds)
		for i := 0; i < n; i++ {
			holds[[2]int{p.f[i], i}] = true
		}
		clear(done)
		// Schedule: each step, run eligible hops greedily (one op per
		// processor).
		guard := 0
		for remaining := len(hops); remaining > 0; {
			guard++
			if guard > 16*(m+n)*(p.maxLoad+2) {
				return fmt.Errorf("pebble: multicast distribution stalled at guest step %d", t)
			}
			clear(busy)
			ops = ops[:0]
			for hi, hp := range hops {
				if done[hi] || !holds[[2]int{hp.from, hp.guest}] || busy[hp.from] || busy[hp.to] {
					continue
				}
				busy[hp.from] = true
				busy[hp.to] = true
				pb := Type{P: hp.guest, T: t}
				ops = append(ops, Op{Kind: Send, Proc: hp.from, Pebble: pb, Peer: hp.to})
				ops = append(ops, Op{Kind: Receive, Proc: hp.to, Pebble: pb, Peer: hp.from})
				done[hi] = true
				remaining--
			}
			if len(ops) == 0 {
				return fmt.Errorf("pebble: multicast deadlock at guest step %d (%d hops left)", t, remaining)
			}
			// Apply holds after the step (synchronous semantics).
			for _, op := range ops {
				if op.Kind == Receive {
					holds[[2]int{op.Proc, op.Pebble.P}] = true
				}
			}
			if err := sink.AppendStep(ops); err != nil {
				return err
			}
		}
	}
	return nil
}
