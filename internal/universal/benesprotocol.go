package universal

import (
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
)

// benesPlan is the precomputed schedule of BuildBenesProtocol: the
// generation order, the demand list, the routed permutation rounds, and the
// exact per-offset op counts (identical for every guest step).
type benesPlan struct {
	d, rows, levels int
	guestsOf        [][]int
	maxLoad         int
	demandGuest     []int // demand index → guest whose pebble moves
	roundMoves      [][]benesMove
	genCount        []int
	transferCount   []int
	transferLen     int
}

type benesMove struct {
	demandIdx int
	path      []int // row at each Beneš level
	dstRow    int
}

func (p *benesPlan) node(level, row int) int { return routing.BenesNode(p.d, level, row) }

func planBenesProtocol(guest *graph.Graph, bh *BenesHost, T int) (*benesPlan, error) {
	if T < 1 {
		return nil, fmt.Errorf("universal: need T ≥ 1")
	}
	n := guest.N()
	if n < bh.Rows {
		return nil, fmt.Errorf("universal: guest size %d below row count %d (rows would idle)", n, bh.Rows)
	}
	d := bh.D
	rows := bh.Rows
	levels := routing.BenesLevels(d)
	rowOf := func(i int) int { return i % rows }

	// Guests per level-0 node, generation order.
	guestsOf := make([][]int, rows)
	for i := 0; i < n; i++ {
		guestsOf[rowOf(i)] = append(guestsOf[rowOf(i)], i)
	}
	maxLoad := 0
	for _, gs := range guestsOf {
		if len(gs) > maxLoad {
			maxLoad = len(gs)
		}
	}

	// The fixed row relation: one entry per (guest, distinct foreign row).
	type demand struct {
		guest  int
		srcRow int
		dstRow int
	}
	var demands []demand
	var rowPairs []routing.Pair
	seenStamp := make([]int32, rows)
	for i := 0; i < n; i++ {
		stamp := int32(i + 1)
		seenStamp[rowOf(i)] = stamp
		for _, j := range guest.Neighbors(i) {
			r := rowOf(j)
			if seenStamp[r] != stamp {
				seenStamp[r] = stamp
				demands = append(demands, demand{guest: i, srcRow: rowOf(i), dstRow: r})
				rowPairs = append(rowPairs, routing.Pair{Src: rowOf(i), Dst: r})
			}
		}
	}
	rounds, err := routing.DecomposeHRelation(rows, rowPairs)
	if err != nil {
		return nil, err
	}
	// Assign each demand to its round occurrence: per (src,dst), a queue.
	queues := make(map[[2]int][]int) // (src,dst) → demand indices
	for di, dm := range demands {
		key := [2]int{dm.srcRow, dm.dstRow}
		queues[key] = append(queues[key], di)
	}
	// One routing scratch reused across rounds; the path rows a round
	// actually uses are copied out of it into a shared arena.
	ps := routing.NewPathScratch(d)
	var pathArena []int
	var roundMoves [][]benesMove
	for _, round := range rounds {
		perm := completeRowPermutation(rows, round)
		paths, err := ps.Paths(perm)
		if err != nil {
			return nil, err
		}
		if err := routing.VerifyBenesPaths(d, perm, paths); err != nil {
			return nil, err
		}
		var moves []benesMove
		for _, pr := range round {
			key := [2]int{pr.Src, pr.Dst}
			q := queues[key]
			if len(q) == 0 {
				return nil, fmt.Errorf("universal: decomposition emitted unmatched pair %v", pr)
			}
			di := q[0]
			queues[key] = q[1:]
			at := len(pathArena)
			pathArena = append(pathArena, paths[pr.Src]...)
			moves = append(moves, benesMove{demandIdx: di, path: pathArena[at : at+levels : at+levels], dstRow: pr.Dst})
		}
		roundMoves = append(roundMoves, moves)
	}
	for key, q := range queues {
		if len(q) != 0 {
			return nil, fmt.Errorf("universal: %d demands for pair %v uncovered", len(q), key)
		}
	}

	// Per-offset op counts are the same for every guest step, so compute them
	// once and presize each step slice exactly: generation step r holds one op
	// per row with load > r; transfer offset 2k+j holds two ops per round-k
	// move (each move occupies offsets 2k .. 2k+levels−1).
	genCount := make([]int, maxLoad)
	for _, gs := range guestsOf {
		for r := 0; r < len(gs); r++ {
			genCount[r]++
		}
	}
	transferLen := 0
	if len(roundMoves) > 0 {
		transferLen = 2*(len(roundMoves)-1) + levels
	}
	transferCount := make([]int, transferLen)
	for k, moves := range roundMoves {
		for j := 0; j < levels; j++ {
			transferCount[2*k+j] += 2 * len(moves)
		}
	}

	demandGuest := make([]int, len(demands))
	for di, dm := range demands {
		demandGuest[di] = dm.guest
	}
	return &benesPlan{
		d: d, rows: rows, levels: levels,
		guestsOf: guestsOf, maxLoad: maxLoad,
		demandGuest: demandGuest, roundMoves: roundMoves,
		genCount: genCount, transferCount: transferCount, transferLen: transferLen,
	}, nil
}

// BuildBenesProtocol realizes Theorem 2.1's offline construction at the
// pebble-op level: a validated protocol on the wrapped Beneš host whose
// transfer schedule is the Waksman path family itself. Per guest step:
//
//	generation phase   — each level-0 node generates its guests' pebbles
//	                     sequentially (⌈n/rows⌉ steps);
//	transfer phase     — the fixed row relation, decomposed once into ≤ h
//	                     permutation rounds; round k's packets enter the
//	                     pipeline at offset 2k and advance one level per
//	                     step (a node receives at one step and sends at the
//	                     next, so the one-op-per-processor rule holds);
//	                     total 2(R−1) + 2d steps for R rounds.
//
// The step count is deterministic — the "known in advance" routing of §2 —
// and the resulting protocol passes Validate and VerifyCarries.
func BuildBenesProtocol(guest *graph.Graph, bh *BenesHost, T int) (*pebble.Protocol, error) {
	plan, err := planBenesProtocol(guest, bh, T)
	if err != nil {
		return nil, err
	}
	levels := plan.levels
	pr := &pebble.Protocol{Guest: guest, Host: bh.Graph, T: T}
	pr.Steps = make([][]pebble.Op, 0, T*plan.maxLoad+(T-1)*plan.transferLen)
	appendStep := func(base, offset, sizeHint int, ops ...pebble.Op) {
		idx := base + offset
		for len(pr.Steps) <= idx {
			pr.Steps = append(pr.Steps, nil)
		}
		if pr.Steps[idx] == nil && sizeHint > 0 {
			pr.Steps[idx] = make([]pebble.Op, 0, sizeHint)
		}
		pr.Steps[idx] = append(pr.Steps[idx], ops...)
	}

	base := 0
	for t := 1; t <= T; t++ {
		// Generation phase.
		for r := 0; r < plan.maxLoad; r++ {
			for q := 0; q < plan.rows; q++ {
				if r < len(plan.guestsOf[q]) {
					appendStep(base, r, plan.genCount[r], pebble.Op{
						Kind: pebble.Generate, Proc: plan.node(0, q),
						Pebble: pebble.Type{P: plan.guestsOf[q][r], T: t},
					})
				}
			}
		}
		base += plan.maxLoad
		if t == T {
			break
		}
		// Transfer phase, pipelined: round k's hop j happens at offset 2k+j.
		for k, moves := range plan.roundMoves {
			for _, mv := range moves {
				pb := pebble.Type{P: plan.demandGuest[mv.demandIdx], T: t}
				// Beneš hops: level j → j+1 along the Waksman path.
				for j := 0; j+1 < levels; j++ {
					from := plan.node(j, mv.path[j])
					to := plan.node(j+1, mv.path[j+1])
					appendStep(base, 2*k+j, plan.transferCount[2*k+j],
						pebble.Op{Kind: pebble.Send, Proc: from, Pebble: pb, Peer: to},
						pebble.Op{Kind: pebble.Receive, Proc: to, Pebble: pb, Peer: from})
				}
				// Wrap hop: last level → level 0 of the destination row.
				from := plan.node(levels-1, mv.path[levels-1])
				to := plan.node(0, mv.dstRow)
				appendStep(base, 2*k+levels-1, plan.transferCount[2*k+levels-1],
					pebble.Op{Kind: pebble.Send, Proc: from, Pebble: pb, Peer: to},
					pebble.Op{Kind: pebble.Receive, Proc: to, Pebble: pb, Peer: from})
			}
		}
		if len(plan.roundMoves) > 0 {
			base += 2*(len(plan.roundMoves)-1) + levels
		}
	}
	// Trim any trailing empty steps (none expected, but keep tight).
	for len(pr.Steps) > 0 && len(pr.Steps[len(pr.Steps)-1]) == 0 {
		pr.Steps = pr.Steps[:len(pr.Steps)-1]
	}
	return pr, nil
}
