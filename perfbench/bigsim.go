package main

import (
	"fmt"
	"math/rand"
	"time"

	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// bigsimSize fixes the bigsim inputs. The defaults are the `uninet bigsim`
// defaults (pipe window 8, 1 MiB chunks, 8 MiB resident budget, shard
// counts auto-sized by the program) at n = 3·10⁵, where validation, the
// pipe handoff and about 60 MB of chunk spill dominate.
type bigsimSize struct {
	n, deg, hostDim, T int
	window             int
	chunkBytes         int
	budgetBytes        int64
}

var defaultBigsimSize = bigsimSize{n: 300_000, deg: 3, hostDim: 5, T: 2, window: 8, chunkBytes: 1 << 20, budgetBytes: 8 << 20}

type bigsim struct {
	seed int64
	size bigsimSize

	// Per measured phase, in order: the stream fingerprint and whether the
	// run itself already failed (error, or slowdown ≠ host_steps/T).
	fingerprints []uint64
	runFailed    []bool
	// ref is the fingerprint of an independently built ChunkedLog (serial
	// builder, no pipe, no validator); 0 until built.
	ref uint64
	// resolved shard counts, as the program auto-sized them.
	buildShards, validateShards int
	// layerFailed counts failed checks in the per-layer sweeps.
	layerFailed int
}

func newBigsim(seed int64, size bigsimSize) *bigsim {
	return &bigsim{seed: seed, size: size}
}

// inputs generates the guest and host: a random deg-regular guest drawn
// from the seed, and the wrapped butterfly host.
func (b *bigsim) inputs(tr *tracer, parent *span) (guest, host *graph.Graph, err error) {
	sp := tr.begin("topology.random_guest", parent)
	guest, err = topology.RandomGuest(rand.New(rand.NewSource(b.seed)), b.size.n, b.size.deg)
	sp.finish()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("topology.wrapped_butterfly", parent)
	host, err = topology.WrappedButterfly(b.size.hostDim)
	sp.finish()
	return guest, host, err
}

func (b *bigsim) newChunks() *pebble.ChunkedLog {
	return pebble.NewChunkedLog(pebble.ChunkedLogOptions{
		TargetChunkBytes: b.size.chunkBytes,
		MemBudgetBytes:   b.size.budgetBytes,
	})
}

// run is one RunStreamingEmbedding call configured as `uninet bigsim` is.
func (b *bigsim) run(guest, host *graph.Graph, chunks *pebble.ChunkedLog) (*universal.StreamRunReport, error) {
	return universal.RunStreamingEmbedding(guest, host, nil, b.size.T, universal.StreamRunConfig{
		Window:        b.size.window,
		Chunks:        chunks,
		MeasureStalls: true,
	})
}

// checkReport is the per-run verdict check: the validator accepted the
// stream and the reported slowdown is host_steps / T.
func checkReport(rep *universal.StreamRunReport, T int) error {
	if want := float64(rep.HostSteps) / float64(T); rep.Slowdown != want {
		return fmt.Errorf("slowdown %v, want host_steps/T = %d/%d = %v", rep.Slowdown, rep.HostSteps, T, want)
	}
	return nil
}

func (b *bigsim) iterate(tr *tracer, parent *span) (iteration, error) {
	t0 := time.Now()
	sp := tr.begin("bigsim.setup", parent)
	guest, host, err := b.inputs(tr, sp)
	sp.finish()
	if err != nil {
		return iteration{}, fmt.Errorf("bigsim inputs: %w", err)
	}
	setup := time.Since(t0)

	chunks := b.newChunks()
	defer chunks.Close()
	sp = tr.begin("universal.run_streaming_embedding", parent)
	ph := beginPhase()
	rep, runErr := b.run(guest, host, chunks)
	cost := ph.end()
	sp.finish()

	it := iteration{setup: setup, cost: cost, attempted: 1}
	if runErr == nil {
		runErr = checkReport(rep, b.size.T)
	}
	if runErr != nil {
		fmt.Printf("# bigsim: run failed: %v\n", runErr)
		it.failed = 1
		b.fingerprints = append(b.fingerprints, 0)
		b.runFailed = append(b.runFailed, true)
	} else {
		it.ops = float64(rep.Ops)
		b.fingerprints = append(b.fingerprints, rep.Fingerprint)
		b.runFailed = append(b.runFailed, false)
		b.buildShards, b.validateShards = rep.BuildShards, rep.ValidateShards
	}
	// One job is guest generation to verdict, as a `uninet bigsim` user
	// waits for it.
	it.lat = []float64{float64(setup+cost.wall) / 1e6}
	return it, nil
}

// reference builds the protocol serially into a ChunkedLog with the
// workload's chunk options, records its fingerprint as the reference, and
// returns the log and the build time.
func (b *bigsim) reference(tr *tracer, guest, host *graph.Graph) (*pebble.ChunkedLog, time.Duration, error) {
	chunks := b.newChunks()
	sp := tr.begin("pebble.build_chunk", nil)
	start := time.Now()
	err := pebble.StreamQueuedEmbeddingProtocol(guest, host, pebble.BalancedAssignment(guest.N(), host.N()), b.size.T, chunks)
	d := time.Since(start)
	sp.finish()
	if err != nil {
		chunks.Close()
		return nil, 0, err
	}
	b.ref = chunks.Fingerprint()
	return chunks, d, nil
}

// verify compares every measured run's stream fingerprint with the
// independently built reference; a mismatch fails that run. It adds the
// per-layer sweeps' failed checks.
func (b *bigsim) verify(tr *tracer) (int, error) {
	if b.ref == 0 {
		guest, host, err := b.inputs(tr, nil)
		if err != nil {
			return 0, err
		}
		chunks, _, err := b.reference(tr, guest, host)
		if err != nil {
			return 0, fmt.Errorf("bigsim reference build: %w", err)
		}
		chunks.Close()
	}
	return countFingerprintFailures(b.fingerprints, b.runFailed, b.ref) + b.layerFailed, nil
}

func (b *bigsim) layerFailure(err error) {
	fmt.Printf("# bigsim: layer sweep check failed: %v\n", err)
	b.layerFailed++
}

// countFingerprintFailures counts the runs that did not already fail and
// whose fingerprint differs from ref.
func countFingerprintFailures(fps []uint64, alreadyFailed []bool, ref uint64) int {
	failed := 0
	for i, fp := range fps {
		if !alreadyFailed[i] && fp != ref {
			fmt.Printf("# bigsim: run %d fingerprint %016x, reference %016x\n", i+1, fp, ref)
			failed++
		}
	}
	return failed
}

func (b *bigsim) describe() []string {
	s := b.size
	return []string{
		fmt.Sprintf("resolved build_shards=%d validate_shards=%d (program defaults, not overridden)", b.buildShards, b.validateShards),
		fmt.Sprintf("guest n=%d %d-regular, host wrapped butterfly d=%d, T=%d, pipe window=%d, chunk=%dKiB, budget=%dKiB",
			s.n, s.deg, s.hostDim, s.T, s.window, s.chunkBytes>>10, s.budgetBytes>>10),
		fmt.Sprintf("stream fingerprint reference %016x over %d measured runs", b.ref, len(b.fingerprints)),
	}
}

// discardSink consumes a step stream without storing it.
type discardSink struct{}

func (discardSink) AppendStep([]pebble.Op) error { return nil }

// layers times each pebble stage on its own: the serial build into a
// discard sink and into a ChunkedLog (the difference is chunk encode and
// spill), then sharded and single-shard validation replaying that log. The
// pipe stalls and build busy time come from a full run with MeasureStalls.
func (b *bigsim) layers(tr *tracer) ([]metric, error) {
	start := time.Now()
	sp := tr.begin("topology.random_guest", nil)
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(b.seed)), b.size.n, b.size.deg)
	sp.finish()
	if err != nil {
		return nil, err
	}
	guestS := time.Since(start).Seconds()
	host, err := topology.WrappedButterfly(b.size.hostDim)
	if err != nil {
		return nil, err
	}
	f := pebble.BalancedAssignment(guest.N(), host.N())

	sp = tr.begin("pebble.build", nil)
	start = time.Now()
	err = pebble.StreamQueuedEmbeddingProtocol(guest, host, f, b.size.T, discardSink{})
	buildS := time.Since(start).Seconds()
	sp.finish()
	if err != nil {
		return nil, err
	}

	chunks, buildChunk, err := b.reference(tr, guest, host)
	if err != nil {
		return nil, err
	}
	defer chunks.Close()
	spec := pebble.Spec{Guest: guest, Host: host, T: b.size.T}

	full := b.newChunks()
	sp = tr.begin("universal.run_streaming_embedding", nil)
	rep, err := b.run(guest, host, full)
	sp.finish()
	full.Close()
	if err != nil {
		return nil, fmt.Errorf("streaming run: %w", err)
	}
	if err := checkReport(rep, b.size.T); err != nil {
		b.layerFailure(err)
	} else if rep.Fingerprint != b.ref {
		b.layerFailure(fmt.Errorf("streaming run fingerprint %016x, reference %016x", rep.Fingerprint, b.ref))
	}
	b.buildShards, b.validateShards = rep.BuildShards, rep.ValidateShards

	validate := func(name string, shards int) (float64, error) {
		sp := tr.begin(name, nil)
		start := time.Now()
		st, err := pebble.ValidateSharded(spec, chunks.Source(), pebble.ShardedOptions{Shards: shards})
		d := time.Since(start).Seconds()
		sp.finish()
		if err != nil {
			return 0, err
		}
		if st.Ops != rep.Ops || st.HostSteps != rep.HostSteps {
			b.layerFailure(fmt.Errorf("%s: replay saw %d ops/%d steps, the run %d/%d", name, st.Ops, st.HostSteps, rep.Ops, rep.HostSteps))
		}
		return d, nil
	}
	validateS, err := validate("pebble.validate", rep.ValidateShards)
	if err != nil {
		return nil, err
	}
	validate1S, err := validate("pebble.validate_1shard", 1)
	if err != nil {
		return nil, err
	}

	const mb = 1e6
	return []metric{
		{name: "topology.random_guest_s", value: guestS, unit: "s"},
		{name: "pebble.build_s", value: buildS, unit: "s"},
		{name: "pebble.build_chunk_s", value: buildChunk.Seconds(), unit: "s"},
		{name: "pebble.validate_s", value: validateS, unit: "s", note: fmt.Sprintf("%d shards", rep.ValidateShards)},
		{name: "pebble.validate_1shard_s", value: validate1S, unit: "s"},
		{name: "pebble.pipe.send_stall_s", value: float64(rep.SendStallNs) / 1e9, unit: "s"},
		{name: "pebble.pipe.recv_stall_s", value: float64(rep.RecvStallNs) / 1e9, unit: "s"},
		{name: "pebble.build.busy_s", value: float64(rep.BuildBusyNs) / 1e9, unit: "s"},
		{name: "pebble.ops", value: float64(rep.Ops), unit: "count", count: true},
		{name: "pebble.host_steps", value: float64(rep.HostSteps), unit: "count", count: true},
		{name: "pebble.encoded_mb", value: float64(rep.EncodedBytes) / mb, unit: "MB", count: true},
		{name: "pebble.spilled_mb", value: float64(rep.SpilledBytes) / mb, unit: "MB", count: true},
		{name: "pebble.peak_chunk_mb", value: float64(rep.PeakChunkBytes) / mb, unit: "MB", count: true},
	}, nil
}
