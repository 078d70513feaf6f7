package routing

import "fmt"

// DecomposeHRelation splits an h–h routing problem into at most h rounds,
// each a partial permutation (every node sends ≤ 1 and receives ≤ 1 packet).
// This is the König edge-coloring step behind §2: the demands form a
// bipartite multigraph of maximum degree h, which is h-edge-colorable; a
// color class is a (partial) permutation. The proof pads the multigraph to
// h-regularity with dummy edges and repeatedly extracts perfect matchings;
// dummies are dropped from the returned rounds.
func DecomposeHRelation(n int, pairs []Pair) ([][]Pair, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	degS := make([]int, n)
	degD := make([]int, n)
	for _, p := range pairs {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return nil, fmt.Errorf("routing: pair %v out of range [0,%d)", p, n)
		}
		degS[p.Src]++
		degD[p.Dst]++
	}
	h := 0
	for v := 0; v < n; v++ {
		if degS[v] > h {
			h = degS[v]
		}
		if degD[v] > h {
			h = degD[v]
		}
	}

	edges := make([]relEdge, 0, len(pairs)+n)
	for _, p := range pairs {
		edges = append(edges, relEdge{src: p.Src, dst: p.Dst, real: true})
	}
	// Pad to exact h-regularity with dummy edges: both sides have the same
	// total deficit, so a greedy two-pointer pairing suffices.
	si, di := 0, 0
	for {
		for si < n && degS[si] == h {
			si++
		}
		for di < n && degD[di] == h {
			di++
		}
		if si == n || di == n {
			break
		}
		edges = append(edges, relEdge{src: si, dst: di})
		degS[si]++
		degD[di]++
	}
	for v := 0; v < n; v++ {
		if degS[v] != h || degD[v] != h {
			return nil, fmt.Errorf("routing: padding failed at node %d (degS=%d degD=%d h=%d)", v, degS[v], degD[v], h)
		}
	}

	// Adjacency: src → incident edge indices, built once in CSR form (edge-
	// index order per source, so candidate order matches a per-round rebuild);
	// used edges are skipped at traversal time instead of being filtered out.
	adjOff := make([]int, n+1)
	for i := range edges {
		adjOff[edges[i].src+1]++
	}
	for v := 0; v < n; v++ {
		adjOff[v+1] += adjOff[v]
	}
	adjList := make([]int32, len(edges))
	fill := make([]int, n)
	copy(fill, adjOff[:n])
	for i := range edges {
		s := edges[i].src
		adjList[fill[s]] = int32(i)
		fill[s]++
	}

	var rounds [][]Pair
	matchDst := make([]int, n) // dst → edge index, or -1
	visited := make([]bool, n)
	var try func(s int) bool
	try = func(s int) bool {
		for _, ei32 := range adjList[adjOff[s]:adjOff[s+1]] {
			ei := int(ei32)
			if edges[ei].used {
				continue
			}
			d := edges[ei].dst
			if visited[d] {
				continue
			}
			visited[d] = true
			if matchDst[d] < 0 || try(edges[matchDst[d]].src) {
				matchDst[d] = ei
				return true
			}
		}
		return false
	}
	for round := 0; round < h; round++ {
		// Kuhn's augmenting-path perfect matching: match every source.
		for i := range matchDst {
			matchDst[i] = -1
		}
		for s := 0; s < n; s++ {
			for i := range visited {
				visited[i] = false
			}
			// A source may appear several times if it was matched through an
			// earlier augmentation; match each source exactly once per round.
			if !isMatchedSrc(edges, matchDst, s) && !try(s) {
				return nil, fmt.Errorf("routing: no perfect matching in round %d (regularity violated)", round)
			}
		}
		var roundPairs []Pair
		for d := 0; d < n; d++ {
			ei := matchDst[d]
			if ei < 0 {
				return nil, fmt.Errorf("routing: destination %d unmatched in round %d", d, round)
			}
			edges[ei].used = true
			if edges[ei].real {
				roundPairs = append(roundPairs, Pair{Src: edges[ei].src, Dst: edges[ei].dst})
			}
		}
		if len(roundPairs) > 0 {
			rounds = append(rounds, roundPairs)
		}
	}
	for i := range edges {
		if !edges[i].used {
			return nil, fmt.Errorf("routing: edge %d left uncolored", i)
		}
	}
	return rounds, nil
}

// relEdge is one (possibly dummy) edge of the padded demand multigraph.
type relEdge struct {
	src, dst int
	real     bool
	used     bool
}

func isMatchedSrc(edges []relEdge, matchDst []int, s int) bool {
	for _, ei := range matchDst {
		if ei >= 0 && edges[ei].src == s {
			return true
		}
	}
	return false
}

// VerifyRounds checks that the rounds cover exactly the multiset of real
// pairs and that each round is a partial permutation.
// Kept as an oracle: TestPropertyDecomposeAlwaysPermutationRounds.
func VerifyRounds(pairs []Pair, rounds [][]Pair) error {
	count := make(map[Pair]int)
	for _, p := range pairs {
		count[p]++
	}
	for ri, round := range rounds {
		srcSeen := make(map[int]bool)
		dstSeen := make(map[int]bool)
		for _, p := range round {
			if srcSeen[p.Src] {
				return fmt.Errorf("routing: round %d repeats source %d", ri, p.Src)
			}
			if dstSeen[p.Dst] {
				return fmt.Errorf("routing: round %d repeats destination %d", ri, p.Dst)
			}
			srcSeen[p.Src] = true
			dstSeen[p.Dst] = true
			count[p]--
			if count[p] < 0 {
				return fmt.Errorf("routing: pair %v over-covered", p)
			}
		}
	}
	for p, c := range count {
		if c != 0 {
			return fmt.Errorf("routing: pair %v covered %d times too few", p, c)
		}
	}
	return nil
}
