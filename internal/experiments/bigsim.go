package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"universalnet/internal/core"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// ---------------------------------------------------------------------------
// E24 — streaming scale: slowdown stays O((n/m)·log m) while protocol
// storage stays bounded. The materialized path holds T'·(ops/step) in
// memory; the streaming pipeline holds a pipe window plus a chunk budget,
// so the measured peak protocol bytes must stay far below the full
// encoding. The registry entry runs laptop-sized n for the deterministic
// suite; `uninet bigsim` drives the same path at n ∈ {10⁴, 10⁵, 10⁶}
// (EXPERIMENTS.md quotes both).

// E24Row is one streaming validation at guest size n.
type E24Row struct {
	N            int
	M            int
	HostSteps    int
	Ops          int64
	MeasuredS    float64
	PredictS     float64
	Ratio        float64
	EncodedBytes int64
	PeakBytes    int64
	SpillBytes   int64
}

// E24StreamingScale builds and validates the queued embedding schedule on a
// butterfly host through the streaming pipeline, one run per guest size,
// with a chunked archive on a deliberately tight memory budget so the
// spill path is exercised and the peak-resident bound is measured.
func E24StreamingScale(ctx context.Context, ns []int, guestDeg, hostDim, T, shards int, seed int64) ([]E24Row, error) {
	reg := obs.FromContext(ctx)
	host, err := universal.ButterflyHost(hostDim)
	if err != nil {
		return nil, err
	}
	m := host.Graph.N()
	var rows []E24Row
	for _, n := range ns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if n < m {
			continue // §2 regime is m ≤ n
		}
		rng := rand.New(rand.NewSource(seed + int64(n)))
		guest, err := topology.RandomGuest(rng, n, guestDeg)
		if err != nil {
			return nil, err
		}
		chunks := pebble.NewChunkedLog(pebble.ChunkedLogOptions{
			TargetChunkBytes: 64 << 10,
			MemBudgetBytes:   256 << 10,
			Obs:              reg,
		})
		rep, err := universal.RunStreamingEmbedding(guest, host.Graph, nil, T, universal.StreamRunConfig{
			Shards: shards,
			Window: 8,
			Chunks: chunks,
			Obs:    reg,
		})
		if cerr := chunks.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: E24 n=%d: %w", n, err)
		}
		pred := core.UpperBoundSlowdown(n, m, 1)
		rows = append(rows, E24Row{
			N:            n,
			M:            m,
			HostSteps:    rep.HostSteps,
			Ops:          rep.Ops,
			MeasuredS:    rep.Slowdown,
			PredictS:     pred,
			Ratio:        rep.Slowdown / pred,
			EncodedBytes: rep.EncodedBytes,
			PeakBytes:    rep.PeakChunkBytes,
			SpillBytes:   rep.SpilledBytes,
		})
	}
	return rows, nil
}

// E24Table formats E24 rows.
func E24Table(rows []E24Row) *Table {
	t := &Table{
		Title:   "E24 (streaming scale): slowdown s vs (n/m)·log m with bounded protocol memory",
		Columns: []string{"n", "m", "host steps", "ops", "measured s", "(n/m)·log2 m", "ratio", "encoded B", "peak B", "spilled B"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.N), fmt.Sprint(r.M), fmt.Sprint(r.HostSteps), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.1f", r.MeasuredS), fmt.Sprintf("%.1f", r.PredictS),
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprint(r.EncodedBytes), fmt.Sprint(r.PeakBytes), fmt.Sprint(r.SpillBytes),
		})
	}
	return t
}
