package sim

import (
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

func ring(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewComputationValidation(t *testing.T) {
	g := ring(t, 4)
	if _, err := NewComputation(g, make([]State, 3), func(int, State, []State) State { return 0 }, "x"); err == nil {
		t.Error("wrong init length accepted")
	}
	if _, err := NewComputation(g, make([]State, 4), nil, "x"); err == nil {
		t.Error("nil transition accepted")
	}
}

func TestRunNegativeSteps(t *testing.T) {
	c := Broadcast(ring(t, 4), 0)
	if _, err := c.Run(-1); err == nil {
		t.Error("negative T accepted")
	}
}

func TestBroadcastCompletesAtEccentricity(t *testing.T) {
	g := ring(t, 10)
	c := Broadcast(g, 0)
	ecc, _ := g.Eccentricity(0)
	tr, err := c.Run(ecc)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.Final() {
		if s != 1 {
			t.Errorf("processor %d not reached after %d steps", i, ecc)
		}
	}
	// One step earlier, the antipode is still 0.
	tr2, err := c.Run(ecc - 1)
	if err != nil {
		t.Fatal(err)
	}
	zero := false
	for _, s := range tr2.Final() {
		if s == 0 {
			zero = true
		}
	}
	if !zero {
		t.Error("broadcast finished before eccentricity steps")
	}
}

func TestMixModDeterministicAndSensitive(t *testing.T) {
	g := ring(t, 12)
	c1 := MixMod(g, rand.New(rand.NewSource(1)))
	c2 := MixMod(g, rand.New(rand.NewSource(1)))
	tr1, err := c1.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := c2.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Checksum() != tr2.Checksum() {
		t.Error("same seed gave different traces")
	}
	c3 := MixMod(g, rand.New(rand.NewSource(2)))
	tr3, err := c3.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Checksum() == tr3.Checksum() {
		t.Error("different seeds gave equal checksums")
	}
}

func TestTraceAccessors(t *testing.T) {
	g := ring(t, 5)
	c := Broadcast(g, 2)
	tr, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.T() != 3 || tr.N() != 5 {
		t.Errorf("T=%d N=%d", tr.T(), tr.N())
	}
	if tr.At(2, 0) != 1 {
		t.Error("initial marker missing")
	}
	empty := &Trace{}
	if empty.N() != 0 {
		t.Error("empty trace N != 0")
	}
}

func TestVerifyTraceAcceptsRun(t *testing.T) {
	g := ring(t, 16)
	c := MixMod(g, rand.New(rand.NewSource(3)))
	tr, err := c.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyTrace(tr); err != nil {
		t.Error(err)
	}
}

func TestVerifyTraceRejectsCorruption(t *testing.T) {
	g := ring(t, 8)
	c := MixMod(g, rand.New(rand.NewSource(4)))
	tr, err := c.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	tr.States[3][2] ^= 1
	if err := c.VerifyTrace(tr); err == nil {
		t.Error("corrupted trace accepted")
	}
	// Corrupted initial state.
	tr2, _ := c.Run(2)
	tr2.States[0][0] ^= 1
	if err := c.VerifyTrace(tr2); err == nil {
		t.Error("corrupted init accepted")
	}
	// Wrong width.
	bad := &Trace{States: [][]State{make([]State, 7)}}
	if err := c.VerifyTrace(bad); err == nil {
		t.Error("wrong-width trace accepted")
	}
}

func TestRandomInit(t *testing.T) {
	init := RandomInit(32, rand.New(rand.NewSource(5)))
	if len(init) != 32 {
		t.Fatalf("len = %d", len(init))
	}
	allZero := true
	for _, s := range init {
		if s != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("random init all zero")
	}
}
