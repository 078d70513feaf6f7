package pebble

import (
	"fmt"

	"universalnet/internal/graph"
)

// embedPlan is the static half of a Theorem 2.1 embedding schedule, known
// before the first host step: the assignment f, the fixed ⌈n/m⌉–⌈n/m⌉
// relation it induces, and shortest-path routing toward every destination
// of that relation. Every builder starts from one read-only plan; what
// distinguishes them is only the rule that schedules the relation (the
// phased rescan, the queued per-host FIFOs, the pipelined farthest-first
// greedy, multicast trees).
type embedPlan struct {
	guest, host *graph.Graph
	f           []int
	T, n, m     int

	maxLoad int
	// Guests assigned to host q are guestIDs[guestOff[q]:guestOff[q+1]],
	// ascending — the generation schedule's row-major order.
	guestOff []int32
	guestIDs []int32

	// The relation: guest i's pebbles go to the distinct foreign hosts
	// relDst[relOff[i]:relOff[i+1]], in the order of i's first neighbor on
	// each. Entry k of relDst is one distribution task per guest step.
	relOff []int32
	relDst []int32

	// For every host dst in the relation, dist[dst][at] is the host
	// distance from at to dst and nhop[dst][at] the first neighbor of at one
	// BFS level closer (-1 at dst itself); nil for hosts no pebble is bound
	// for.
	dist [][]int
	nhop [][]int32
}

// newEmbedPlan is the one argument check of the builders: T ≥ 1, a
// connected host with at least one processor, and an assignment of the
// right length into the host (nil means BalancedAssignment).
func newEmbedPlan(guest, host *graph.Graph, f []int, T int) (*embedPlan, error) {
	n, m := guest.N(), host.N()
	if T < 1 {
		return nil, fmt.Errorf("pebble: need T ≥ 1, got %d", T)
	}
	if !host.IsConnected() {
		return nil, fmt.Errorf("pebble: host must be connected")
	}
	if m == 0 {
		return nil, fmt.Errorf("pebble: host has no processors")
	}
	if f == nil {
		f = BalancedAssignment(n, m)
	}
	if len(f) != n {
		return nil, fmt.Errorf("pebble: assignment length %d, want %d", len(f), n)
	}
	for i, q := range f {
		if q < 0 || q >= m {
			return nil, fmt.Errorf("pebble: guest %d assigned to invalid host %d", i, q)
		}
	}

	p := &embedPlan{guest: guest, host: host, f: f, T: T, n: n, m: m}

	p.guestOff = make([]int32, m+1)
	for _, q := range f {
		p.guestOff[q+1]++
	}
	for q := 0; q < m; q++ {
		p.guestOff[q+1] += p.guestOff[q]
		if load := int(p.guestOff[q+1] - p.guestOff[q]); load > p.maxLoad {
			p.maxLoad = load
		}
	}
	p.guestIDs = make([]int32, n)
	pos := make([]int32, m)
	copy(pos, p.guestOff[:m])
	for i, q := range f {
		p.guestIDs[pos[q]] = int32(i)
		pos[q]++
	}

	p.dist = make([][]int, m)
	p.nhop = make([][]int32, m)
	p.relOff = make([]int32, n+1)
	seenStamp := make([]int32, m)
	for i := 0; i < n; i++ {
		seenStamp[f[i]] = int32(i + 1)
		for _, j := range guest.Neighbors(i) {
			h := f[j]
			if seenStamp[h] == int32(i+1) {
				continue
			}
			seenStamp[h] = int32(i + 1)
			p.relDst = append(p.relDst, int32(h))
			if p.dist[h] == nil {
				p.route(h)
			}
		}
		p.relOff[i+1] = int32(len(p.relDst))
	}
	return p, nil
}

// route fills the distance and next-hop tables toward dst.
func (p *embedPlan) route(dst int) {
	d := p.host.BFS(dst)
	nh := make([]int32, p.m)
	for at := range nh {
		nh[at] = -1
		for _, w := range p.host.Neighbors(at) {
			if d[w] == d[at]-1 {
				nh[at] = int32(w)
				break
			}
		}
	}
	p.dist[dst], p.nhop[dst] = d, nh
}

// emitGeneration emits the generation phase of guest step t: maxLoad host
// steps, in round r of which every host generates the pebble of its r-th
// guest. ops is scratch, returned for reuse.
func (p *embedPlan) emitGeneration(ops []Op, t int, sink StepSink) ([]Op, error) {
	for r := int32(0); r < int32(p.maxLoad); r++ {
		ops = ops[:0]
		for q := 0; q < p.m; q++ {
			if base := p.guestOff[q]; r < p.guestOff[q+1]-base {
				ops = append(ops, Op{Kind: Generate, Proc: q, Pebble: Type{P: int(p.guestIDs[base+r]), T: t}})
			}
		}
		if err := sink.AppendStep(ops); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// scheduleRule is what one builder adds to the plan: it emits the plan's
// schedule through sink, one AppendStep per host step, and may hand the
// sink a reused scratch slice.
type scheduleRule func(p *embedPlan, sink StepSink) error

// streamPlan checks the arguments, plans, and runs rule into sink.
func streamPlan(guest, host *graph.Graph, f []int, T int, rule scheduleRule, sink StepSink) error {
	p, err := newEmbedPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	return rule(p, sink)
}

// materializePlan is the builders' one materializing path: rule's steps
// are copied into a fresh Protocol by ProtocolSink.
func materializePlan(guest, host *graph.Graph, f []int, T int, rule scheduleRule) (*Protocol, error) {
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := streamPlan(guest, host, f, T, rule, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}
