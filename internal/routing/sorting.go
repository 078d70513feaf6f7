package routing

import (
	"fmt"
	"sort"

	"universalnet/internal/graph"
)

// Sorting networks as a routing mechanism (§2): "using parallel sorting as
// routing mechanism" — packets sorted by destination end up at their
// destinations when the network is a linear array, and a permutation on any
// indexable network can be routed by sorting destination keys. This file
// provides compare-exchange schedules (odd–even transposition for arrays,
// bitonic for hypercubes), their executors, and a SortingRouter.

// CompareExchange is one comparator: if the key at position I exceeds the
// key at position J (I < J positions in the sorted order), swap them.
type CompareExchange struct {
	I, J int
}

// Schedule is a sorting network: rounds of disjoint comparators. All
// comparators within a round operate in parallel (their endpoints are
// disjoint), matching one network step in which each node exchanges with a
// single neighbor.
type Schedule struct {
	N      int
	Rounds [][]CompareExchange
}

// Depth returns the number of parallel rounds.
func (s *Schedule) Depth() int { return len(s.Rounds) }

// Size returns the total comparator count.
func (s *Schedule) Size() int {
	c := 0
	for _, r := range s.Rounds {
		c += len(r)
	}
	return c
}

// Validate checks comparator bounds and intra-round disjointness.
func (s *Schedule) Validate() error {
	for ri, round := range s.Rounds {
		used := make(map[int]bool)
		for _, ce := range round {
			if ce.I < 0 || ce.J < 0 || ce.I >= s.N || ce.J >= s.N || ce.I == ce.J {
				return fmt.Errorf("routing: round %d has invalid comparator %+v", ri, ce)
			}
			if used[ce.I] || used[ce.J] {
				return fmt.Errorf("routing: round %d reuses a position in %+v", ri, ce)
			}
			used[ce.I] = true
			used[ce.J] = true
		}
	}
	return nil
}

// Apply runs the schedule on keys in place.
func (s *Schedule) Apply(keys []int) error {
	if len(keys) != s.N {
		return fmt.Errorf("routing: %d keys for schedule of %d", len(keys), s.N)
	}
	for _, round := range s.Rounds {
		for _, ce := range round {
			// The comparator orients I as the small end: after the round,
			// keys[I] ≤ keys[J]. Descending comparators (bitonic) set I > J.
			if keys[ce.I] > keys[ce.J] {
				keys[ce.I], keys[ce.J] = keys[ce.J], keys[ce.I]
			}
		}
	}
	return nil
}

// Sorts reports whether the schedule sorts every 0/1 input (the 0-1
// principle: a comparator network sorts all inputs iff it sorts all 2^n
// 0/1 vectors). Exponential; for n ≤ 20.
// Kept for the 0-1 principle checks: TestBitonicSorts and others.
func (s *Schedule) Sorts() (bool, error) {
	if s.N > 20 {
		return false, fmt.Errorf("routing: 0-1 check infeasible for n=%d", s.N)
	}
	keys := make([]int, s.N)
	for mask := 0; mask < 1<<s.N; mask++ {
		for i := 0; i < s.N; i++ {
			keys[i] = (mask >> i) & 1
		}
		if err := s.Apply(keys); err != nil {
			return false, err
		}
		for i := 1; i < s.N; i++ {
			if keys[i-1] > keys[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// OddEvenTransposition returns the classic n-round schedule for a linear
// array: odd rounds compare (0,1),(2,3),…; even rounds compare (1,2),(3,4),…
// Each comparator is an edge of the path, so one round = one network step.
func OddEvenTransposition(n int) *Schedule {
	s := &Schedule{N: n}
	for r := 0; r < n; r++ {
		var round []CompareExchange
		start := r % 2
		for i := start; i+1 < n; i += 2 {
			round = append(round, CompareExchange{I: i, J: i + 1})
		}
		s.Rounds = append(s.Rounds, round)
	}
	return s
}

// Bitonic returns Batcher's bitonic sorting network for n = 2^k inputs:
// depth k(k+1)/2 rounds, each round's comparators along one hypercube
// dimension (so the schedule runs on a hypercube with one step per round).
func Bitonic(n int) (*Schedule, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("routing: bitonic needs a power of two, got %d", n)
	}
	s := &Schedule{N: n}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var round []CompareExchange
			for i := 0; i < n; i++ {
				l := i ^ j
				if l > i {
					if i&k == 0 {
						round = append(round, CompareExchange{I: i, J: l})
					} else {
						round = append(round, CompareExchange{I: l, J: i})
					}
				}
			}
			s.Rounds = append(s.Rounds, round)
		}
	}
	return s, nil
}

// SortingRouter routes a full permutation on an indexable network by sorting
// packets by destination with a comparator schedule; time = schedule depth.
// The schedule's comparators must correspond to network edges under the
// identity position↔node map (true for OddEvenTransposition on paths/rings
// and Bitonic on hypercubes).
type SortingRouter struct {
	Schedule *Schedule
	// CheckEdges, when set, verifies each comparator is a host edge.
	CheckEdges bool
}

// Name implements Router.
func (r *SortingRouter) Name() string { return "sorting" }

// Route implements Router for full permutations: packet i at node i with
// destination Dst sorts into place.
func (r *SortingRouter) Route(g *graph.Graph, p *Problem) (Result, error) {
	if r.Schedule == nil || r.Schedule.N != p.N || g.N() != p.N {
		return Result{}, fmt.Errorf("routing: sorting router size mismatch")
	}
	if err := r.Schedule.Validate(); err != nil {
		return Result{}, err
	}
	if r.CheckEdges {
		for _, round := range r.Schedule.Rounds {
			for _, ce := range round {
				if !g.HasEdge(ce.I, ce.J) {
					return Result{}, fmt.Errorf("routing: comparator (%d,%d) is not a host edge", ce.I, ce.J)
				}
			}
		}
	}
	// Build the key array: key at node s is the destination of the packet
	// starting there. Every node must start exactly one packet.
	keys := make([]int, p.N)
	for i := range keys {
		keys[i] = -1
	}
	for _, pr := range p.Pairs {
		if keys[pr.Src] != -1 {
			return Result{}, fmt.Errorf("routing: node %d starts two packets; sorting routes full permutations", pr.Src)
		}
		keys[pr.Src] = pr.Dst
	}
	perm := make([]int, 0, p.N)
	for i, k := range keys {
		if k == -1 {
			return Result{}, fmt.Errorf("routing: node %d starts no packet; sorting routes full permutations", i)
		}
		perm = append(perm, k)
	}
	if err := checkPermutation(perm); err != nil {
		return Result{}, err
	}
	if err := r.Schedule.Apply(keys); err != nil {
		return Result{}, err
	}
	if !sort.IntsAreSorted(keys) {
		return Result{}, fmt.Errorf("routing: schedule failed to sort the destinations")
	}
	return Result{Steps: r.Schedule.Depth(), Delivered: p.N}, nil
}
