package pebble

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// TestBuilderGoldenFingerprints pins every builder's exact schedule. Each
// builder runs over a fixed matrix — torus, mesh and random-regular hosts,
// the balanced and a randomized assignment, T ∈ {1, 2, 3} — and all its
// steps go through one ChunkedLog, whose fingerprint is compared against
// the recorded value. The red-blue cost model prices these schedules, so
// a refactor of the builders must leave every op in place.
func TestBuilderGoldenFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	guest, err := topology.RandomGuest(rng, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.Mesh(9)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := topology.RandomGuest(rng, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*graph.Graph{torus, mesh, regular}

	builders := []struct {
		name  string
		build func(guest, host *graph.Graph, f []int, T int) (*Protocol, error)
		want  string
	}{
		{"phased", BuildEmbeddingProtocol, "5ed992870e5572b3"},
		{"pipelined", BuildPipelinedProtocol, "7fb688d2107e7b93"},
		{"queued", buildQueued, "629a8e5f05abdd77"},
		{"multicast", BuildMulticastProtocol, "722e0d8ab38df027"},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			log := NewChunkedLog(ChunkedLogOptions{})
			for hi, host := range hosts {
				for _, f := range [][]int{nil, RandomizedAssignment(guest.N(), host.N(), 7)} {
					for T := 1; T <= 3; T++ {
						pr, err := b.build(guest, host, f, T)
						if err != nil {
							t.Fatalf("host %d, T=%d: %v", hi, T, err)
						}
						for _, ops := range pr.Steps {
							if err := log.AppendStep(ops); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			if got := fmt.Sprintf("%016x", log.Fingerprint()); got != b.want {
				t.Fatalf("fingerprint %s, want %s", got, b.want)
			}
		})
	}

	// The 40-guest matrix keeps the queued builder's per-host task queues
	// short. Here 2000 guests share 16 or 24 hosts, so every queue starts
	// hundreds of tasks deep, and relay hosts keep taking tasks in while
	// they forward others, so queues grow well past their starting length.
	t.Run("queued-large", func(t *testing.T) {
		big, err := topology.RandomGuest(rand.New(rand.NewSource(11)), 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		butterfly, err := topology.WrappedButterfly(3)
		if err != nil {
			t.Fatal(err)
		}
		log := NewChunkedLog(ChunkedLogOptions{})
		for hi, host := range []*graph.Graph{torus, butterfly} {
			for _, f := range [][]int{nil, RandomizedAssignment(big.N(), host.N(), 7)} {
				for T := 2; T <= 3; T++ {
					if err := StreamQueuedEmbeddingProtocol(big, host, f, T, log); err != nil {
						t.Fatalf("host %d, T=%d: %v", hi, T, err)
					}
				}
			}
		}
		if got, want := fmt.Sprintf("%016x", log.Fingerprint()), "5cb78ca3238fe0b1"; got != want {
			t.Fatalf("fingerprint %s, want %s (%d steps)", got, want, log.Steps())
		}
	})
}
