package universal

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

func bigsimFixture(t testing.TB, n int) (*Host, func() *pebble.ChunkedLog) {
	t.Helper()
	host, err := ButterflyHost(4)
	if err != nil {
		t.Fatal(err)
	}
	return host, func() *pebble.ChunkedLog {
		return pebble.NewChunkedLog(pebble.ChunkedLogOptions{
			TargetChunkBytes: 32 << 10,
			MemBudgetBytes:   64 << 10,
			SpillDir:         t.TempDir(),
		})
	}
}

// TestRunStreamingEmbeddingCancel: a pre-cancelled context tears the whole
// pipeline down — builder, watcher, validator — with ctx.Err() as
// the verdict and no goroutine left behind.
func TestRunStreamingEmbeddingCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	guest, err := topology.RandomGuest(rng, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := bigsimFixture(t, 50000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunStreamingEmbedding(guest, host.Graph, nil, 3, StreamRunConfig{
		Window: 2,
		Ctx:    ctx,
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunStreamingEmbeddingSequential: builder and validator each report
// one sequential worker, whatever GOMAXPROCS is.
func TestRunStreamingEmbeddingSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	guest, err := topology.RandomGuest(rng, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := bigsimFixture(t, 500)
	rep, err := RunStreamingEmbedding(guest, host.Graph, nil, 2, StreamRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BuildShards != 1 || rep.ValidateShards != 1 {
		t.Fatalf("reported build=%d validate=%d shards, want 1 and 1",
			rep.BuildShards, rep.ValidateShards)
	}
}

// TestRunStreamingEmbeddingEmptyGuest: a guest or host without processors
// is an input error, not a run reporting inefficiency k = NaN or a division
// by zero in the balanced assignment.
func TestRunStreamingEmbeddingEmptyGuest(t *testing.T) {
	host, _ := bigsimFixture(t, 0)
	guest, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	empty := graph.NewBuilder(0).Build()
	rep, err := RunStreamingEmbedding(empty, host.Graph, nil, 2, StreamRunConfig{})
	if err == nil || !strings.Contains(err.Error(), "guest has no processors") {
		t.Fatalf("want a no-processors error, got report %+v, err %v", rep, err)
	}
	rep, err = RunStreamingEmbedding(guest, empty, nil, 2, StreamRunConfig{})
	if err == nil || !strings.Contains(err.Error(), "host has no processors") {
		t.Fatalf("want a no-processors error, got report %+v, err %v", rep, err)
	}
}
