package pebble

import (
	"math/bits"
	"sort"

	"universalnet/internal/graph"
)

// State tracks a pebble-game execution: which processors contain which
// pebbles, who generated what, and when each processor first obtained each
// pebble (for the frontier analysis of Definition 3.16).
//
// Legality and possession belong to the one rule engine (engine.go), which
// State embeds: ApplyStep runs the engine on the step and, once the engine
// accepts it, records the new gains the engine reported in the analysis
// tables the lemmas query — holders Q_S with their first-held steps, and
// generators Q'_S. Pebble
// (P_i, t) is the dense id t·n + i, so the tables are flat arrays indexed
// by id, and a warm replay allocates nothing beyond the table entries
// themselves. See DESIGN.md §2 ("Pebble state: analysis tables over the one
// engine").
type State struct {
	*ruleEngine

	guest *graph.Graph
	host  *graph.Graph
	T     int

	// holders is a per-id singly linked list threaded through holderEntries
	// (gain order), with holderCount the list length; an entry's step is
	// the host step at which its processor first held the pebble. Initial
	// pebbles (t = 0) are held by every processor from step 0 and can never
	// be gained again; they carry count = m and no list entries.
	holderHead    []int32
	holderCount   []int32
	holderEntries []listEntry

	// generators is the same linked-list layout for Q'_S: one entry per
	// (pebble, processor) pair that executed Generate.
	genHead    []int32
	genCount   []int32
	genEntries []listEntry

	// frontierVals[t] caches the sorted jump points of e_t(·) — the minima
	// over generators of their first-held steps — so FrontierSize is a
	// binary search and FrontierThresholdStep a single lookup. frontierStep[t] records the
	// host step the cache was built at; any applied step invalidates it.
	frontierVals [][]int32
	frontierStep []int
}

// listEntry is one node of a holder or generator list; step is the
// first-held step on holder lists and unused on generator lists.
type listEntry struct{ proc, step, next int32 }

// NewState initializes the start configuration: every host processor holds
// all initial pebbles (P_i, 0).
func NewState(guest, host *graph.Graph, T int) *State {
	v := newRuleEngine(Spec{Guest: guest, Host: host, T: T})
	v.trackFresh = true
	tables := make([]int32, 4*v.numIDs) // one allocation, four per-id tables
	table := func(k int) []int32 { return tables[k*v.numIDs : (k+1)*v.numIDs : (k+1)*v.numIDs] }
	st := &State{
		ruleEngine:  v,
		guest:       guest,
		host:        host,
		T:           T,
		holderHead:  table(0),
		holderCount: table(1),
		genHead:     table(2),
		genCount:    table(3),
	}
	for id := 0; id < v.numIDs; id++ {
		st.holderHead[id] = -1
		st.genHead[id] = -1
	}
	for i := 0; i < v.n; i++ {
		st.holderCount[i] = int32(v.m)
	}
	return st
}

// HostStep returns the number of host steps applied so far.
func (st *State) HostStep() int { return st.steps }

// Contains reports whether processor q holds pebble ty.
func (st *State) Contains(q int, ty Type) bool {
	id, ok := st.idOf(ty)
	return ok && st.bit(q, id)
}

// hasGenerator reports whether some processor generated ty.
func (st *State) hasGenerator(ty Type) bool {
	id, ok := st.idOf(ty)
	return ok && st.genCount[id] > 0
}

// ApplyStep validates and applies one host step's operations. Errors are
// the engine's rule violations, without a host-step prefix. A rejected
// step leaves the State spent: the engine applies gains optimistically, so
// possession after an error is unspecified.
func (st *State) ApplyStep(ops []Op) error {
	st.fresh = st.fresh[:0]
	if err := st.applyStep(ops); err != nil {
		return err
	}
	for i := range ops {
		if op := &ops[i]; op.Kind == Generate {
			st.addGenerator(op.Pebble.T*st.n+op.Pebble.P, op.Proc)
		}
	}
	step := int32(st.steps)
	for _, i := range st.fresh {
		op := &ops[i]
		id := op.Pebble.T*st.n + op.Pebble.P
		st.holderEntries = append(st.holderEntries, listEntry{proc: int32(op.Proc), step: step, next: st.holderHead[id]})
		st.holderHead[id] = int32(len(st.holderEntries) - 1)
		st.holderCount[id]++
	}
	return nil
}

// addGenerator records that q executed Generate for id; a duplicate
// generation by the same processor is recorded once.
func (st *State) addGenerator(id, q int) {
	for e := st.genHead[id]; e >= 0; e = st.genEntries[e].next {
		if int(st.genEntries[e].proc) == q {
			return
		}
	}
	st.genEntries = append(st.genEntries, listEntry{proc: int32(q), next: st.genHead[id]})
	st.genHead[id] = int32(len(st.genEntries) - 1)
	st.genCount[id]++
}

// firstHeld returns the host step at which q first held pebble id, or -1
// if it never did.
func (st *State) firstHeld(q, id int) int32 {
	if id < st.n {
		return 0 // initial pebbles are held everywhere from the start
	}
	for e := st.holderHead[id]; e >= 0; e = st.holderEntries[e].next {
		if int(st.holderEntries[e].proc) == q {
			return st.holderEntries[e].step
		}
	}
	return -1
}

// Representatives returns Q_S(i, t): the processors holding pebble (P_i, t)
// at the current point of the protocol, sorted.
func (st *State) Representatives(i, t int) []int {
	id, ok := st.idOf(Type{P: i, T: t})
	if !ok || st.holderCount[id] == 0 {
		return nil
	}
	if t == 0 {
		all := make([]int, st.m)
		for q := range all {
			all[q] = q
		}
		return all
	}
	return listProcs(st.holderEntries, st.holderHead[id], st.holderCount[id])
}

// Generators returns Q'_S(i, t): the processors that generated (P_i, t+1)
// (necessarily members of Q_S(i, t)), sorted.
func (st *State) Generators(i, t int) []int {
	id, ok := st.idOf(Type{P: i, T: t + 1})
	if !ok || st.genCount[id] == 0 {
		return nil
	}
	return listProcs(st.genEntries, st.genHead[id], st.genCount[id])
}

// listProcs collects the processors of one linked list, sorted.
func listProcs(entries []listEntry, head, count int32) []int {
	out := make([]int, 0, count)
	for e := head; e >= 0; e = entries[e].next {
		out = append(out, int(entries[e].proc))
	}
	sort.Ints(out)
	return out
}

// Weight returns q_{i,t} = |Q_S(i,t)| (Definition 3.11).
func (st *State) Weight(i, t int) int {
	id, ok := st.idOf(Type{P: i, T: t})
	if !ok {
		return 0
	}
	return int(st.holderCount[id])
}

// TotalWeight returns Σ_i q_{i,t} for one guest time step.
func (st *State) TotalWeight(t int) int {
	if t < 0 || t > st.T {
		return 0
	}
	sum := 0
	for id := t * st.n; id < (t+1)*st.n; id++ {
		sum += int(st.holderCount[id])
	}
	return sum
}

// PebbleCount returns the total number of pebble placements, which is
// bounded by the operation count T'·m in the proof of Lemma 3.12.
func (st *State) PebbleCount() int {
	sum := 0
	for _, c := range st.holderCount {
		sum += int(c)
	}
	return sum
}

// GuestsOnProcessor returns 𝒫(j, t) = {i : j ∈ Q_S(i, t)} — the guest
// processors whose time-t pebble processor j holds (used for the D_i sets
// and the heavy-processor argument of Lemma 3.15).
func (st *State) GuestsOnProcessor(j, t int) []int {
	if t < 0 || t > st.T {
		return nil
	}
	var out []int
	base := t * st.n
	for i := 0; i < st.n; i++ {
		if st.bit(j, base+i) {
			out = append(out, i)
		}
	}
	return out
}

// guestsOnCount is |GuestsOnProcessor(j, t)| without the allocation: a
// popcount over the time-t span of j's possession row.
func (st *State) guestsOnCount(j, t int) int {
	if t < 0 || t > st.T {
		return 0
	}
	lo, hi := t*st.n, (t+1)*st.n
	row := st.contains[j*st.words : (j+1)*st.words]
	count := 0
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := row[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == (hi-1)>>6 {
			if r := uint(hi) & 63; r != 0 {
				word &= 1<<r - 1
			}
		}
		count += bits.OnesCount64(word)
	}
	return count
}

// frontierFor returns the sorted jump points of e_t(·): for each guest i
// with a generating pebble of type (P_i, t), the earliest host step at which
// some eventual generator of (P_i, t+1) first held (P_i, t). Every generator
// held that predecessor when it generated, so it is on the holder list.
// Rebuilt lazily after each applied host step, then served from cache.
func (st *State) frontierFor(t int) []int32 {
	if st.frontierVals == nil {
		st.frontierVals = make([][]int32, st.T+1)
		st.frontierStep = make([]int, st.T+1)
		for i := range st.frontierStep {
			st.frontierStep[i] = -1
		}
	}
	if st.frontierStep[t] == st.steps {
		return st.frontierVals[t]
	}
	vals := st.frontierVals[t][:0]
	base := t * st.n
	for i := 0; i < st.n; i++ {
		best := int32(-1)
		for e := st.genHead[base+st.n+i]; e >= 0; e = st.genEntries[e].next {
			f := st.firstHeld(int(st.genEntries[e].proc), base+i)
			if best < 0 || f < best {
				best = f
			}
		}
		if best >= 0 {
			vals = append(vals, best)
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	st.frontierVals[t] = vals
	st.frontierStep[t] = st.steps
	return vals
}

// FrontierSize returns e_t(τ) of Definition 3.16: the number of guest
// processors i for which a generating pebble of type (P_i, t) exists after τ
// host steps — that is, some processor that (at some point of the protocol)
// generates (P_i, t+1) already holds (P_i, t) by step τ.
func (st *State) FrontierSize(t, τ int) int {
	if t < 0 || t+1 > st.T {
		return 0
	}
	vals := st.frontierFor(t)
	return sort.Search(len(vals), func(k int) bool { return int(vals[k]) > τ })
}

// FrontierThresholdStep returns τ_j of Lemma 3.15: the earliest host step at
// which e_t(τ) ≥ target, or -1 if never reached.
func (st *State) FrontierThresholdStep(t, target, maxStep int) int {
	if maxStep < 0 {
		return -1
	}
	if target <= 0 {
		return 0
	}
	if t < 0 || t+1 > st.T {
		return -1
	}
	vals := st.frontierFor(t)
	if len(vals) < target {
		return -1
	}
	// e_t only grows at the cached jump points, so the earliest step with
	// e_t(τ) ≥ target is the target-th smallest first-held minimum.
	if τ := int(vals[target-1]); τ <= maxStep {
		return τ
	}
	return -1
}
