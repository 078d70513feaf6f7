package pebble

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// buildQueued materializes the queued builder's schedule, the small-n form
// the equivalence tests compare; big runs stream it instead.
func buildQueued(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	return materializePlan(guest, host, f, T, queuedRule)
}

// streamFixture builds a small valid protocol shared by the stream tests.
func streamFixture(t testing.TB) *Protocol {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	guest, err := topology.RandomGuest(rng, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestMaterializeRoundTrip(t *testing.T) {
	pr := streamFixture(t)
	got, err := Materialize(pr.Spec(), pr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Steps, pr.Steps) {
		t.Fatal("materialized steps differ from the original")
	}
	if got.T != pr.T || got.Guest != pr.Guest || got.Host != pr.Host {
		t.Fatal("materialized spec differs from the original")
	}
}

func TestTeeSinkDuplicates(t *testing.T) {
	pr := streamFixture(t)
	a := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	b := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	tee := TeeSink(&ProtocolSink{Proto: a}, &ProtocolSink{Proto: b})
	src := pr.Source()
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tee.AppendStep(ops); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.Steps, pr.Steps) || !reflect.DeepEqual(b.Steps, pr.Steps) {
		t.Fatal("tee sinks received different streams")
	}
}

func TestValidateSourceMatchesValidate(t *testing.T) {
	pr := streamFixture(t)
	stV, errV := pr.Validate()
	stS, errS := ValidateSource(pr.Spec(), pr.Source())
	if errV != nil || errS != nil {
		t.Fatalf("valid protocol rejected: validate %v, source %v", errV, errS)
	}
	if stV.PebbleCount() != stS.PebbleCount() || stV.HostStep() != stS.HostStep() {
		t.Fatalf("final states differ: (%d,%d) vs (%d,%d)",
			stV.PebbleCount(), stV.HostStep(), stS.PebbleCount(), stS.HostStep())
	}

	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 20; k++ {
		mu := mutate(pr, rng)
		_, errV := mu.Validate()
		_, errS := ValidateSource(mu.Spec(), mu.Source())
		if (errV == nil) != (errS == nil) {
			t.Fatalf("mutant %d: validate err %v, source err %v", k, errV, errS)
		}
		if errV != nil && errV.Error() != errS.Error() {
			t.Fatalf("mutant %d: validate %q, source %q", k, errV, errS)
		}
	}
}

func TestPipeStream(t *testing.T) {
	pr := streamFixture(t)
	for _, window := range []int{1, 3, 16} {
		pipe := NewPipe(window)
		go func() {
			src := pr.Source()
			for {
				ops, err := src.NextStep()
				if err == io.EOF {
					pipe.CloseSend(nil)
					return
				}
				if err != nil {
					pipe.CloseSend(err)
					return
				}
				if err := pipe.AppendStep(ops); err != nil {
					return
				}
			}
		}()
		got, err := Materialize(pr.Spec(), pipe)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !reflect.DeepEqual(got.Steps, pr.Steps) {
			t.Fatalf("window %d: piped steps differ", window)
		}
	}
}

func TestPipePropagatesProducerError(t *testing.T) {
	pipe := NewPipe(2)
	boom := errors.New("boom")
	go func() {
		_ = pipe.AppendStep([]Op{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 1}}})
		pipe.CloseSend(boom)
	}()
	if _, err := pipe.NextStep(); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, err := pipe.NextStep(); err != boom {
		t.Fatalf("want producer error, got %v", err)
	}
}

func TestPipeCloseRecvUnblocksProducer(t *testing.T) {
	pipe := NewPipe(1)
	done := make(chan error, 1)
	go func() {
		step := []Op{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 1}}}
		for i := 0; ; i++ {
			if err := pipe.AppendStep(step); err != nil {
				done <- err
				return
			}
		}
	}()
	if _, err := pipe.NextStep(); err != nil {
		t.Fatal(err)
	}
	pipe.CloseRecv()
	if err := <-done; err != ErrPipeClosed {
		t.Fatalf("want ErrPipeClosed, got %v", err)
	}
}

// TestStreamingBuildersMatchMaterialized pins the refactor invariant: the
// streaming cores must emit byte-identical step sequences to the builders
// they were extracted from.
func TestStreamingBuildersMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	f := RandomizedAssignment(9, 9, 42)
	T := 3

	// Each rule hands its sink a reused ops slice; a ChunkedLog encodes it
	// at once, as the streaming pipeline does, and must decode to the
	// builder's materialized steps.
	builders := []struct {
		name  string
		rule  scheduleRule
		build func(guest, host *graph.Graph, f []int, T int) (*Protocol, error)
	}{
		{"phased", phasedRule, BuildEmbeddingProtocol},
		{"pipelined", pipelinedRule, BuildPipelinedProtocol},
		{"multicast", multicastRule, BuildMulticastProtocol},
	}
	for _, b := range builders {
		legacy, err := b.build(guest, host, f, T)
		if err != nil {
			t.Fatal(err)
		}
		log := NewChunkedLog(ChunkedLogOptions{})
		if err := streamPlan(guest, host, f, T, b.rule, log); err != nil {
			t.Fatal(err)
		}
		streamed, err := Materialize(legacy.Spec(), log.Source())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy.Steps, streamed.Steps) {
			t.Fatalf("%s: streamed schedule diverged from the materialized builder", b.name)
		}
	}

	queued, err := buildQueued(guest, host, f, T)
	if err != nil {
		t.Fatal(err)
	}
	streamedQ := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamQueuedEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: streamedQ}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(queued.Steps, streamedQ.Steps) {
		t.Fatal("StreamQueuedEmbeddingProtocol diverged from its materializing wrapper")
	}
}

// TestQueuedBuilderValidates: the scalable queued scheduler produces valid
// protocols across guests, hosts, and assignments, and both validation
// engines accept them with identical stats.
func TestQueuedBuilderValidates(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		T := 2 + rng.Intn(2)
		guest, err := topology.RandomGuest(rng, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := topology.Torus(9)
		if seed%2 == 1 {
			h, err = topology.Mesh(9)
		}
		if err != nil {
			t.Fatal(err)
		}
		f := RandomizedAssignment(n, h.N(), seed)
		pr, err := buildQueued(guest, h, f, T)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := pr.Validate(); err != nil {
			t.Fatalf("seed %d: queued protocol rejected: %v", seed, err)
		}
		stats, err := ValidateSharded(pr.Spec(), pr.Source(), ShardedOptions{})
		if err != nil {
			t.Fatalf("seed %d: sharded rejected: %v", seed, err)
		}
		if stats.HostSteps != pr.HostSteps() || stats.Ops != int64(pr.OpCount()) {
			t.Fatalf("seed %d: stats (%d,%d), protocol (%d,%d)",
				seed, stats.HostSteps, stats.Ops, pr.HostSteps(), pr.OpCount())
		}
	}
}

// TestTaskQueuesFIFOAcrossBlocks: the queued builder's per-host queues
// keep FIFO order as they run across block boundaries and reuse freed
// blocks, and a pool sized for the task count never runs out, even with
// every task queued at once and spread unevenly over the hosts.
func TestTaskQueuesFIFOAcrossBlocks(t *testing.T) {
	task := func(k int) queuedTask { return queuedTask{guest: int32(k), dst: int32(-k)} }
	qs := newTaskQueues(1, 32)
	if qs.blockLen != 4 {
		t.Fatalf("block length %d for 32 tasks on one host, want 4", qs.blockLen)
	}
	qs.clear()
	for k := 0; k < 10; k++ {
		qs.push(0, task(k)) // blocks of 4, 4 and 2
	}
	for k := 0; k < 5; k++ {
		if got := qs.pop(0); got != task(k) {
			t.Fatalf("pop %+v, want %+v", got, task(k))
		}
	}
	if qs.free < 0 || qs.hosts[0].hi != 1 {
		t.Fatalf("spent head block not freed: free=%d hi=%d", qs.free, qs.hosts[0].hi)
	}
	for k := 10; k < 16; k++ {
		qs.push(0, task(k)) // the tail takes the freed block
	}
	for k := 5; k < 16; k++ {
		if got := qs.pop(0); got != task(k) {
			t.Fatalf("pop %+v, want %+v", got, task(k))
		}
	}
	if qs.hosts[0].n != 0 {
		t.Fatalf("%d tasks left after draining", qs.hosts[0].n)
	}

	// The pool's worst case: every task queued at once, each host's head
	// block down to its last task and its tail block holding one.
	qs = newTaskQueues(2, 64) // 4-task blocks, 16 + 2·2 of them
	qs.clear()
	want := make([][]queuedTask, 2)
	next := 0
	for q, live := range []int{30, 34} {
		for k := 0; k < 4; k++ {
			qs.push(q, task(next))
			want[q] = append(want[q], task(next))
			next++
		}
		for k := 0; k < 3; k++ {
			qs.pop(q)
		}
		want[q] = want[q][3:]
		for len(want[q]) < live {
			qs.push(q, task(next))
			want[q] = append(want[q], task(next))
			next++
		}
	}
	for q := range want {
		for _, w := range want[q] {
			if got := qs.pop(q); got != w {
				t.Fatalf("full pool, host %d: pop %+v, want %+v", q, got, w)
			}
		}
	}

	const m, tasks = 5, 200
	rng := rand.New(rand.NewSource(1))
	qs = newTaskQueues(m, tasks)
	for round := 0; round < 20; round++ {
		qs.clear()
		model := make([][]queuedTask, m)
		live := 0
		for i := 0; i < 3000; i++ {
			q := rng.Intn(m)
			if round%2 == 0 && q > 0 && rng.Intn(2) == 0 {
				q = 0 // skew: host 0 takes half the traffic
			}
			if live < tasks && (len(model[q]) == 0 || rng.Intn(5) > 1) {
				qs.push(q, task(next))
				model[q] = append(model[q], task(next))
				live++
				next++
				continue
			}
			if len(model[q]) == 0 {
				continue
			}
			if got := qs.pop(q); got != model[q][0] {
				t.Fatalf("round %d op %d host %d: pop %+v, want %+v", round, i, q, got, model[q][0])
			}
			model[q] = model[q][1:]
			live--
		}
		for q := range model {
			if int(qs.hosts[q].n) != len(model[q]) {
				t.Fatalf("round %d host %d holds %d tasks, model %d", round, q, qs.hosts[q].n, len(model[q]))
			}
		}
	}
}

// TestShardedMatchesDense extends the oracle seed suite through the
// streaming validator: on valid protocols and mutants alike, accept/reject
// and the error text must match the dense engine exactly.
func TestShardedMatchesDense(t *testing.T) {
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
			h, err := topology.Torus(9)
			if seed%3 == 1 {
				h, err = topology.Mesh(9)
			} else if seed%3 == 2 {
				h, err = topology.RandomRegular(rng, 8, 3)
			}
			if err != nil {
				t.Fatal(err)
			}
			f := RandomizedAssignment(n, h.N(), seed)

			var pr *Protocol
			switch seed % 5 {
			case 0:
				pr, err = RandomProtocol(guest, h, T, rng, 0)
			case 1:
				pr, err = BuildEmbeddingProtocol(guest, h, f, T)
			case 2:
				pr, err = BuildPipelinedProtocol(guest, h, f, T)
			case 3:
				pr, err = BuildMulticastProtocol(guest, h, f, T)
			default:
				pr, err = buildQueued(guest, h, f, T)
			}
			if err != nil {
				t.Fatalf("building protocol: %v", err)
			}

			check := func(p *Protocol) {
				t.Helper()
				_, errD := p.Validate()
				_, errS := ValidateSharded(p.Spec(), p.Source(), ShardedOptions{})
				if (errD == nil) != (errS == nil) {
					t.Fatalf("dense err %v, sharded err %v", errD, errS)
				}
				if errD != nil && errD.Error() != errS.Error() {
					t.Fatalf("dense %q, sharded %q", errD, errS)
				}
			}
			check(pr)
			for k := 0; k < 3; k++ {
				check(mutate(pr, rng))
			}
		})
	}
}

// TestShardedStatsMatchProtocol pins the deterministic counters the
// experiments read.
func TestShardedStatsMatchProtocol(t *testing.T) {
	pr := streamFixture(t)
	stats, err := ValidateSharded(pr.Spec(), pr.Source(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := pr.Stats()
	if stats.HostSteps != s.HostSteps || stats.Ops != int64(s.TotalOps) ||
		stats.Generates != int64(s.Generates) || stats.Sends != int64(s.Sends) ||
		stats.Receives != int64(s.Receives) || stats.MaxStepOps != s.MaxStepOps {
		t.Fatalf("stream stats %+v, protocol stats %+v", *stats, s)
	}
}

// TestMinimizeStreamMatchesProtocol: the streaming minimizer and the
// materialized wrapper agree, and minimized output still validates.
func TestMinimizeStreamMatchesProtocol(t *testing.T) {
	pr := streamFixture(t)
	// Inject redundancy: duplicate a transfer step so the minimizer has
	// something to drop.
	redundant := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	for _, step := range pr.Steps {
		redundant.Steps = append(redundant.Steps, step)
	}
	for si, step := range pr.Steps {
		if len(step) > 0 && step[0].Kind == Send {
			redundant.Steps = append(redundant.Steps[:si+1:si+1], redundant.Steps[si:]...)
			break
		}
	}
	mini, dropped, err := MinimizeProtocol(redundant)
	if err != nil {
		t.Fatal(err)
	}
	out := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	droppedS, err := MinimizeStream(redundant.Spec(), redundant.Source(), &ProtocolSink{Proto: out})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != droppedS {
		t.Fatalf("dropped %d vs %d", dropped, droppedS)
	}
	if !reflect.DeepEqual(mini.Steps, out.Steps) {
		t.Fatal("MinimizeStream output differs from MinimizeProtocol")
	}
	if _, err := mini.Validate(); err != nil {
		t.Fatalf("minimized protocol rejected: %v", err)
	}
	if dropped == 0 {
		t.Fatal("expected the duplicated step to produce drops")
	}
}
