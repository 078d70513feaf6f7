package pebble

import (
	"fmt"
	"testing"

	"universalnet/internal/core"
	"universalnet/internal/topology"
)

// Exhaustive verification of Lemma 3.3 on a micro instance: enumerate EVERY
// labeled 4-regular guest on 6 vertices (there are 15 — the complements of
// the perfect matchings of K6), build the canonical protocol for each on a
// fixed host, extract the fragment at a fixed critical time with a fixed
// picker, and check that the number of distinct guests sharing any one
// fragment never exceeds the lemma's bound Π_i C(|D_i|, c/2). This is the
// multiplicity X measured exactly, not sampled.
func TestLemma33ExhaustiveMicro(t *testing.T) {
	const (
		n  = 6
		c  = 4
		T  = 3
		t0 = 1
	)
	guests, err := topology.EnumerateRegularGraphs(n, c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(guests) != 15 {
		t.Fatalf("enumerated %d guests, want 15", len(guests))
	}
	// Load-1 host: each guest processor on its own host, so B_i reflects
	// which neighbors exist and fragments distinguish guests.
	host, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	type fragKey string
	byFragment := make(map[fragKey][]int)
	fragBound := make(map[fragKey]float64)
	for gi, guest := range guests {
		pr, err := BuildEmbeddingProtocol(guest, host, nil, T)
		if err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		st, err := pr.Validate()
		if err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		frag, err := st.ExtractFragment(t0, pickFirst)
		if err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		if err := frag.Validate(); err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		// Lemma 3.3's edge-inclusion core, exhaustively.
		for i := 0; i < n; i++ {
			dset := make(map[int]bool)
			for _, x := range frag.D[i] {
				dset[x] = true
			}
			for _, j := range guest.Neighbors(i) {
				if !dset[j] {
					t.Fatalf("guest %d: neighbor %d of P%d outside D_%d", gi, j, i, i)
				}
			}
		}
		// Canonical encoding of the fragment (B, B', D determined by B, B').
		key := fragKey(fmt.Sprintf("%v|%v", frag.B, frag.BP))
		byFragment[key] = append(byFragment[key], gi)
		dSizes := make([]int, n)
		for i := range frag.D {
			dSizes[i] = len(frag.D[i])
		}
		fragBound[key] = core.Log2MultiplicityExact(dSizes, c)
	}
	// The measured multiplicity of every fragment respects the bound.
	for key, members := range byFragment {
		bound := fragBound[key]
		measured := float64(len(members))
		if measured > 1 && core.Log2Factorial(int(measured)) > 0 {
			// log2(measured) ≤ bound must hold; measured == 1 is trivial.
			log2m := 0.0
			for x := measured; x > 1; x /= 2 {
				log2m++
			}
			if log2m > bound {
				t.Errorf("fragment shared by %d guests exceeds Lemma 3.3 bound 2^%.1f", len(members), bound)
			}
		}
	}
	// Sanity: the protocols distinguish most guests (the fragments are
	// informative, not all identical).
	if len(byFragment) < 2 {
		t.Errorf("all %d guests collapsed onto %d fragment(s)", len(guests), len(byFragment))
	}
}

// The same exhaustive sweep at c = 2 (disjoint cycle covers on 6 vertices):
// all 70 guests simulate and carry computations.
func TestAllTwoRegularGuestsCarry(t *testing.T) {
	guests, err := topology.EnumerateRegularGraphs(6, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(guests) != 70 {
		t.Fatalf("enumerated %d, want 70", len(guests))
	}
	host, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	for gi, guest := range guests {
		pr, err := BuildEmbeddingProtocol(guest, host, nil, 2)
		if err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
		if _, err := pr.Validate(); err != nil {
			t.Fatalf("guest %d: %v", gi, err)
		}
	}
}
