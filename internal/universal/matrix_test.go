package universal

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
)

// The integration matrix: the MixMod workload on five guest families,
// simulated on every host kind, trace-verified — the universality property
// exercised across the full guest × host grid.
func TestWorkloadHostMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(101))

	// MixMod on a random 4-regular guest and on structured guests: a
	// torus, a CCC, a ring and a shuffle-exchange graph.
	guests := []struct {
		name  string
		build func() (*graph.Graph, error)
		steps int
	}{
		{"random4", func() (*graph.Graph, error) { return topology.RandomGuest(rng, 64, 4) }, 4},
		{"torus", func() (*graph.Graph, error) { return topology.Torus(64) }, 5},
		{"ccc", func() (*graph.Graph, error) { return topology.CubeConnectedCycles(3) }, 6},
		{"ring", func() (*graph.Graph, error) { return topology.Ring(64) }, 5},
		{"shuffle-exchange", func() (*graph.Graph, error) { return topology.ShuffleExchange(6) }, 4},
	}

	hosts := map[string]func() (*Host, error){
		"butterfly": func() (*Host, error) { return ButterflyHost(3) },
		"torus":     func() (*Host, error) { return TorusHost(16) },
		"expander":  func() (*Host, error) { return ExpanderHost(16, 4, 3) },
		"ring":      func() (*Host, error) { return RingHost(16) },
		"ccc":       func() (*Host, error) { return CCCHost(3) },
	}
	for _, gs := range guests {
		g, err := gs.build()
		if err != nil {
			t.Fatal(err)
		}
		comp := sim.MixMod(g, rng)
		direct, err := comp.Run(gs.steps)
		if err != nil {
			t.Fatalf("%s direct: %v", gs.name, err)
		}
		for hname, build := range hosts {
			t.Run(fmt.Sprintf("mixmod/%s_on_%s", gs.name, hname), func(t *testing.T) {
				host, err := build()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := (&EmbeddingSimulator{Host: host}).Run(comp, gs.steps)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Trace.Checksum() != direct.Checksum() {
					t.Fatal("trace diverged")
				}
				if rep.Slowdown < 1 {
					t.Errorf("slowdown %f < 1", rep.Slowdown)
				}
			})
		}
	}
}
