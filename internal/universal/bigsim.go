package universal

import (
	"context"
	"fmt"
	"time"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
)

// Big-n streaming simulation: builder and validator run as a two-stage
// pipeline connected by a bounded pebble.Pipe, so the protocol never exists
// as a whole — the working set is the pipe window plus the validator's
// possession bitsets (and, optionally, the chunked archive's resident
// window). The builder runs on its own goroutine and the rule engine
// validates on the caller's. This is the path that takes E1-style
// validation to n = 10⁶ guest processors on laptop RAM.

// StreamRunConfig tunes the streaming pipeline.
type StreamRunConfig struct {
	// Window is the builder→validator pipe depth in steps; 0 means 4.
	Window int
	// Chunks, when non-nil, receives a tee of the step stream — the archive
	// that can later be written out with WriteBinary or re-validated.
	Chunks *pebble.ChunkedLog
	// Obs, when non-nil, receives the validator's deterministic counters and
	// the chunk storage gauges.
	Obs *obs.Registry
	// MeasureStalls turns on wall-clock pipeline stall accounting. The stall
	// gauges are scheduling-dependent, so experiments keep this off; the CLI
	// turns it on for humans watching a run.
	MeasureStalls bool
	// Ctx, when non-nil, cancels the whole pipeline: builder and validator
	// are torn down and ctx.Err() is returned.
	Ctx context.Context
}

// StreamRunReport summarizes one streaming build+validate run.
type StreamRunReport struct {
	N, M, T      int
	MaxLoad      int
	HostSteps    int
	Ops          int64
	Slowdown     float64
	Inefficiency float64
	// BuildShards and ValidateShards are always 1 (builder and validator are
	// sequential); kept for report consumers that print them.
	BuildShards, ValidateShards int
	// Pipeline profile (nonzero only with MeasureStalls). SendStallNs is
	// the builder blocked on the pipe; RecvStallNs the validator waiting
	// for steps; BuildBusyNs the builder's wall time net of SendStallNs.
	SendStallNs, RecvStallNs int64
	BuildBusyNs              int64
	// Chunk storage profile (nonzero only with a chunk tee).
	EncodedBytes, PeakChunkBytes, SpilledBytes int64
	// Fingerprint is the chunk archive's stream fingerprint (zero without a
	// chunk tee) — byte-identity of the schedule is asserted on it.
	Fingerprint uint64
}

// RunStreamingEmbedding builds the queued embedding schedule for guest on
// host under assignment f (nil = balanced) and validates it concurrently
// through the pebble rule engine. Validation failure abandons the
// pipe, which unblocks and stops the builder; cancelling cfg.Ctx tears both
// stages down — no goroutine outlives the call either way.
func RunStreamingEmbedding(guest, host *graph.Graph, f []int, T int, cfg StreamRunConfig) (*StreamRunReport, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n, m := guest.N(), host.N()
	if n == 0 {
		return nil, fmt.Errorf("universal: streaming run: guest has no processors")
	}
	if m == 0 {
		return nil, fmt.Errorf("universal: streaming run: host has no processors")
	}
	if f == nil {
		f = pebble.BalancedAssignment(n, m)
	}
	window := cfg.Window
	if window <= 0 {
		window = 4
	}

	pipe := pebble.NewPipe(window)
	pipe.MeasureStalls = cfg.MeasureStalls

	var sink pebble.StepSink = pipe
	if cfg.Chunks != nil {
		sink = pebble.TeeSink(cfg.Chunks, pipe)
	}
	var buildNs int64
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		start := time.Now()
		pipe.CloseSend(pebble.StreamQueuedEmbeddingProtocol(guest, host, f, T, sink))
		buildNs = time.Since(start).Nanoseconds()
	}()
	// The builder can be parked in sink.AppendStep on a full pipe;
	// abandoning the pipe's read side on cancellation unblocks it.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				pipe.CloseRecv()
			case <-watchDone:
			}
		}()
	}

	sp := pebble.Spec{Guest: guest, Host: host, T: T}
	stats, err := pebble.ValidateSharded(sp, pipe, pebble.ShardedOptions{Obs: cfg.Obs})
	pipe.CloseRecv()
	<-builderDone
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}

	rep := &StreamRunReport{
		N: n, M: m, T: T,
		MaxLoad:        pebble.MaxLoad(f, m),
		HostSteps:      stats.HostSteps,
		Ops:            stats.Ops,
		Slowdown:       stats.Slowdown(T),
		Inefficiency:   stats.Slowdown(T) * float64(m) / float64(n),
		BuildShards:    1,
		ValidateShards: 1,
	}
	if cfg.MeasureStalls {
		rep.SendStallNs, rep.RecvStallNs = pipe.Stalls()
		rep.BuildBusyNs = buildNs - rep.SendStallNs
		if cfg.Obs != nil {
			cfg.Obs.Gauge("pebble.pipe.send_stall_ns").SetMax(rep.SendStallNs)
			cfg.Obs.Gauge("pebble.pipe.recv_stall_ns").SetMax(rep.RecvStallNs)
			cfg.Obs.Gauge("pebble.build.busy_ns").SetMax(rep.BuildBusyNs)
		}
	}
	if cfg.Chunks != nil {
		rep.EncodedBytes = cfg.Chunks.TotalBytes()
		rep.PeakChunkBytes = cfg.Chunks.PeakResidentBytes()
		rep.SpilledBytes = cfg.Chunks.SpilledBytes()
		rep.Fingerprint = cfg.Chunks.Fingerprint()
		if cfg.Obs != nil {
			cfg.Obs.Gauge("pebble.chunk.resident_peak_bytes").SetMax(rep.PeakChunkBytes)
		}
	}
	return rep, nil
}
