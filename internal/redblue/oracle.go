package redblue

import (
	"fmt"
	"math/bits"

	"universalnet/internal/pebble"
)

// Brute-force load-optimal scheduler for tiny instances, the PR 5 oracle
// pattern: an exhaustive, obviously-correct reference the fast engine is
// pinned against. Because write-through makes stores and compute
// policy-independent, the only optimizable quantity is the load count, and
// each processor's reference sequence is fixed by the protocol — so the
// global optimum is the sum of independent per-processor optima. Per
// processor this runs an exact dynamic program over cache contents: states
// are subsets of the ≤ 64 distinct pebbles the processor ever references
// (bitmask), transitions replay one op's reference group (operands pinned,
// then evict any subset down to capacity). Exponential in distinct pebbles
// — strictly a test oracle for ≤ 12-node DAGs.

// refGroup is one op's references by its processor: reads must be loaded if
// absent, writes appear without a load; both stay pinned until the op ends.
type refGroup struct {
	reads, writes uint64
}

// OracleMinLoads returns the minimum total number of blue→red loads any
// eviction schedule can achieve replaying steps with red capacity r per
// processor (r = 0 means unbounded: only compulsory loads remain). It
// errors when a processor references more than 64 distinct pebbles (the
// mask width) or an op needs more than r simultaneous residents.
// Kept as the reference oracle of TestOracleMatchesBeladyReplay.
func OracleMinLoads(sp pebble.Spec, steps [][]pebble.Op, r int) (int64, error) {
	m := sp.Host.N()
	// Per-processor local id spaces and group sequences.
	localIdx := make([]map[int32]int, m)
	groups := make([][]refGroup, m)
	for q := 0; q < m; q++ {
		localIdx[q] = make(map[int32]int)
	}
	local := func(q int, id int32) (int, error) {
		li, ok := localIdx[q][id]
		if !ok {
			li = len(localIdx[q])
			if li >= 64 {
				return 0, fmt.Errorf("redblue: oracle: processor %d references > 64 distinct pebbles", q)
			}
			localIdx[q][id] = li
		}
		return li, nil
	}
	var ferr error
	for _, ops := range steps {
		// Each op is one group of its own processor.
		for _, op := range ops {
			var g refGroup
			forEachRef(sp, []pebble.Op{op}, func(q int, id int32, write bool) {
				if ferr != nil {
					return
				}
				li, err := local(q, id)
				if err != nil {
					ferr = err
					return
				}
				if write {
					g.writes |= 1 << uint(li)
				} else {
					g.reads |= 1 << uint(li)
				}
			})
			if ferr != nil {
				return 0, ferr
			}
			groups[op.Proc] = append(groups[op.Proc], g)
		}
	}
	var total int64
	for q := 0; q < m; q++ {
		loads, err := minLoadsProc(groups[q], r, q)
		if err != nil {
			return 0, err
		}
		total += loads
	}
	return total, nil
}

// minLoadsProc is the exact DP for one processor's group sequence.
func minLoadsProc(groups []refGroup, r int, q int) (int64, error) {
	if len(groups) == 0 {
		return 0, nil
	}
	state := map[uint64]int64{0: 0}
	for _, g := range groups {
		need := g.reads | g.writes
		if r > 0 && bits.OnesCount64(need) > r {
			return 0, fmt.Errorf("redblue: oracle: red capacity %d too small: processor %d needs %d resident pebbles in one op",
				r, q, bits.OnesCount64(need))
		}
		next := make(map[uint64]int64, len(state))
		for cache, loads := range state {
			loads += int64(bits.OnesCount64(g.reads &^ cache))
			base := cache | need
			if r == 0 || bits.OnesCount64(base) <= r {
				if old, ok := next[base]; !ok || loads < old {
					next[base] = loads
				}
				continue
			}
			// Evict down to capacity: keep `need` plus any (r−|need|)-sized
			// subset of the rest. Keeping fewer than possible never helps
			// (a larger cache dominates), so enumerate exact-size subsets.
			rest := base &^ need
			keepN := r - bits.OnesCount64(need)
			forEachSubsetOfSize(rest, keepN, func(keep uint64) {
				c := need | keep
				if old, ok := next[c]; !ok || loads < old {
					next[c] = loads
				}
			})
		}
		state = next
	}
	best := int64(-1)
	for _, loads := range state {
		if best < 0 || loads < best {
			best = loads
		}
	}
	return best, nil
}

// forEachSubsetOfSize enumerates every subset of mask with exactly k bits.
func forEachSubsetOfSize(mask uint64, k int, fn func(uint64)) {
	if k <= 0 {
		fn(0)
		return
	}
	if bits.OnesCount64(mask) < k {
		return
	}
	// Gosper-style walk over the positions present in mask.
	var posns [64]int
	np := 0
	for m := mask; m != 0; m &= m - 1 {
		posns[np] = bits.TrailingZeros64(m)
		np++
	}
	// Enumerate k-combinations of np positions.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var s uint64
		for _, i := range idx {
			s |= 1 << uint(posns[i])
		}
		fn(s)
		// Advance combination.
		i := k - 1
		for i >= 0 && idx[i] == np-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
