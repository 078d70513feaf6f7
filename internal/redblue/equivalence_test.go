package redblue

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

// corrupt returns a seeded-random mutant of pr: one step altered in a way
// that is usually invalid. Either way the costed replay's verdict must
// match ValidateSharded's byte for byte.
func corrupt(pr *pebble.Protocol, rng *rand.Rand) *pebble.Protocol {
	out := &pebble.Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T, Steps: make([][]pebble.Op, len(pr.Steps))}
	for i, ops := range pr.Steps {
		out.Steps[i] = append([]pebble.Op(nil), ops...)
	}
	if len(out.Steps) == 0 {
		return out
	}
	si := rng.Intn(len(out.Steps))
	ops := out.Steps[si]
	if len(ops) == 0 {
		return out
	}
	oi := rng.Intn(len(ops))
	switch rng.Intn(6) {
	case 0: // processor acts twice
		out.Steps[si] = append(ops, ops[oi])
	case 1: // drop an op — may orphan a send or receive
		out.Steps[si] = append(ops[:oi:oi], ops[oi+1:]...)
	case 2: // pebble from the future
		ops[oi].Pebble.T++
	case 3: // out-of-range processor
		ops[oi].Proc = pr.Host.N() + rng.Intn(3)
	case 4: // wrong peer
		ops[oi].Peer = (ops[oi].Peer + 1 + rng.Intn(pr.Host.N()-1)) % pr.Host.N()
	case 5: // out-of-range guest index
		ops[oi].Pebble.P = pr.Guest.N() + rng.Intn(3)
	}
	return out
}

// compareVerdicts replays pr through ValidateSharded and through a costed
// replay (unbounded red — no capacity errors possible) and requires
// identical accept/reject verdicts with identical error text.
func compareVerdicts(t *testing.T, pr *pebble.Protocol) {
	t.Helper()
	sp := pr.Spec()
	_, errS := pebble.ValidateSharded(sp, pr.Source(), pebble.ShardedOptions{})
	_, errC := ReplayCosted(sp, pr.Source(), DefaultCostModel(0), NewLRU(), Options{})
	switch {
	case errS == nil && errC == nil:
	case errS == nil || errC == nil:
		t.Fatalf("verdicts diverge: sharded %v, costed %v", errS, errC)
	case errS.Error() != errC.Error():
		t.Fatalf("errors diverge:\n  sharded: %s\n  costed:  %s", errS, errC)
	}
}

// Costed replay must never alter validation verdicts: 80 seeds across four
// builders, valid protocols and two mutants each.
func TestCostedReplayVerdictEquivalence(t *testing.T) {
	protocols, mutants := 0, 0
	for seed := int64(0); seed < 80; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(5)
			T := 2 + rng.Intn(2)
			guest, err := topology.RandomGuest(rng, n, 2)
			if err != nil {
				t.Fatal(err)
			}
			host, err := topology.Torus(9)
			if err != nil {
				t.Fatal(err)
			}
			f := pebble.RandomizedAssignment(n, host.N(), seed)

			var pr *pebble.Protocol
			switch seed % 4 {
			case 0:
				pr, err = pebble.BuildEmbeddingProtocol(guest, host, f, T)
			case 1:
				pr, err = pebble.BuildPipelinedProtocol(guest, host, f, T)
			case 2:
				pr, err = pebble.BuildMulticastProtocol(guest, host, f, T)
			default:
				pr, err = pebble.BuildQueuedEmbeddingProtocol(guest, host, f, T)
			}
			if err != nil {
				t.Fatalf("building protocol: %v", err)
			}

			compareVerdicts(t, pr)
			protocols++

			// A bounded replay of the valid protocol must also accept.
			sp := pr.Spec()
			if _, err := ReplayCosted(sp, pr.Source(), DefaultCostModel(MinRed(sp)+2), NewLRU(), Options{}); err != nil {
				t.Fatalf("bounded replay of valid protocol: %v", err)
			}

			for k := 0; k < 2; k++ {
				compareVerdicts(t, corrupt(pr, rng))
				mutants++
			}
		})
	}
	if !t.Failed() {
		t.Logf("compared %d protocols and %d mutants with zero verdict divergence", protocols, mutants)
	}
}
