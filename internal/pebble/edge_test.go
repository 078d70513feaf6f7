package pebble

import (
	"io"
	"strings"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// emptySource is a stream with zero host steps.
type emptySource struct{}

func (emptySource) NextStep() ([]Op, error) { return nil, io.EOF }

func mustRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Degenerate specs must come back as graceful errors from both the batch and
// the incremental entry points — not as index panics inside the bitset setup
// (zero-processor hosts used to panic in phaseScan, negative horizons in the
// start-configuration loop).
func TestValidateShardedDegenerateSpecs(t *testing.T) {
	guest := mustRing(t, 4)
	host := mustRing(t, 4)
	empty := graph.NewBuilder(0).Build()
	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{"nil guest", Spec{Guest: nil, Host: host, T: 1}, "nil guest graph"},
		{"nil host", Spec{Guest: guest, Host: nil, T: 1}, "nil host graph"},
		{"zero processors", Spec{Guest: guest, Host: empty, T: 1}, "host has no processors"},
		{"negative horizon", Spec{Guest: guest, Host: host, T: -1}, "negative horizon T=-1"},
	}
	for _, tc := range cases {
		if _, err := ValidateSharded(tc.sp, emptySource{}, ShardedOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if _, err := NewStreamValidator(tc.sp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (StreamValidator): got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// An empty stream on a non-degenerate spec fails the final-generator check
// with the same message the dense engine produces.
func TestValidateShardedEmptyStream(t *testing.T) {
	sp := Spec{Guest: mustRing(t, 4), Host: mustRing(t, 4), T: 2}
	want := "pebble: final pebble (P0,t2) never generated"
	if _, err := ValidateSharded(sp, emptySource{}, ShardedOptions{}); err == nil || err.Error() != want {
		t.Errorf("got %v, want %q", err, want)
	}
	sv, err := NewStreamValidator(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Finish(); err == nil || err.Error() != want {
		t.Errorf("StreamValidator.Finish: got %v, want %q", err, want)
	}
}

// Horizon-0 protocols can never generate their (trivially final) time-0
// pebbles — Generate's horizon is [1,T]. The engine reports that instead of
// panicking, matching the dense engine's verdict.
func TestValidateShardedHorizonZero(t *testing.T) {
	sp := Spec{Guest: mustRing(t, 3), Host: mustRing(t, 3), T: 0}
	want := "pebble: final pebble (P0,t0) never generated"
	if _, err := ValidateSharded(sp, emptySource{}, ShardedOptions{}); err == nil || err.Error() != want {
		t.Errorf("empty stream: got %v, want %q", err, want)
	}
	// A generate at t=0 is rejected per-step, same as the dense engine.
	steps := stepsSource{steps: [][]Op{{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 0}}}}}
	_, err := ValidateSharded(sp, &steps, ShardedOptions{})
	if err == nil || !strings.Contains(err.Error(), "outside guest horizon [1,0]") {
		t.Errorf("generate at t=0: got %v, want horizon error", err)
	}
}

// A zero-vertex guest has nothing to generate: an empty stream validates.
func TestValidateShardedEmptyGuest(t *testing.T) {
	sp := Spec{Guest: graph.NewBuilder(0).Build(), Host: mustRing(t, 3), T: 2}
	stats, err := ValidateSharded(sp, emptySource{}, ShardedOptions{})
	if err != nil {
		t.Fatalf("empty guest: %v", err)
	}
	if stats.HostSteps != 0 || stats.Ops != 0 {
		t.Errorf("empty guest stats = %+v, want zeros", stats)
	}
}

// stepsSource replays a fixed [][]Op.
type stepsSource struct {
	steps [][]Op
	next  int
}

func (s *stepsSource) NextStep() ([]Op, error) {
	if s.next >= len(s.steps) {
		return nil, io.EOF
	}
	ops := s.steps[s.next]
	s.next++
	return ops, nil
}

// TestBuildersRejectBadArguments: every builder runs the same argument
// check. A host without processors is an input error, not an integer
// division by zero in the balanced assignment.
func TestBuildersRejectBadArguments(t *testing.T) {
	guest := mustRing(t, 4)
	host := mustRing(t, 4)
	empty := graph.NewBuilder(0).Build()
	builders := []struct {
		name  string
		build func(guest, host *graph.Graph, f []int, T int) (*Protocol, error)
	}{
		{"phased", BuildEmbeddingProtocol},
		{"pipelined", BuildPipelinedProtocol},
		{"queued", buildQueued},
		{"multicast", BuildMulticastProtocol},
	}
	cases := []struct {
		name string
		host *graph.Graph
		f    []int
		T    int
		want string
	}{
		{"empty host", empty, nil, 2, "pebble: host has no processors"},
		{"zero horizon", host, nil, 0, "pebble: need T ≥ 1, got 0"},
		{"short assignment", host, []int{0, 1}, 2, "pebble: assignment length 2, want 4"},
		{"assignment out of range", host, []int{0, 1, 2, 4}, 2, "pebble: guest 3 assigned to invalid host 4"},
	}
	for _, b := range builders {
		for _, tc := range cases {
			pr, err := b.build(guest, tc.host, tc.f, tc.T)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: want error %q, got protocol %v, err %v", b.name, tc.name, tc.want, pr != nil, err)
			}
		}
	}
}
