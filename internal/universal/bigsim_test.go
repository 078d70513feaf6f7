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
// pipeline down — builder, watcher, validator shards — with ctx.Err() as
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
		Shards: 2,
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

// TestRunStreamingEmbeddingAutoSizing: zero config resolves the validator
// shards from GOMAXPROCS, and the builder reports its one serial worker.
func TestRunStreamingEmbeddingAutoSizing(t *testing.T) {
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
	wantBuild := 1
	wantValidate := runtime.GOMAXPROCS(0)
	if m := host.Graph.N(); wantValidate > m {
		wantValidate = m
	}
	if rep.BuildShards != wantBuild || rep.ValidateShards != wantValidate {
		t.Fatalf("auto-sized to build=%d validate=%d, want build=%d validate=%d",
			rep.BuildShards, rep.ValidateShards, wantBuild, wantValidate)
	}
}

// TestRunStreamingEmbeddingEmptyGuest: a guest without processors is an
// input error, not a run reporting inefficiency k = NaN.
func TestRunStreamingEmbeddingEmptyGuest(t *testing.T) {
	host, _ := bigsimFixture(t, 0)
	guest := graph.NewBuilder(0).Build()
	rep, err := RunStreamingEmbedding(guest, host.Graph, nil, 2, StreamRunConfig{})
	if err == nil || !strings.Contains(err.Error(), "guest has no processors") {
		t.Fatalf("want a no-processors error, got report %+v, err %v", rep, err)
	}
}
