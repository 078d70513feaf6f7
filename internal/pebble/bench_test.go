package pebble

import (
	"math/rand"
	"testing"

	"universalnet/internal/topology"
)

// discardSink drops every step: it isolates a builder's own cost from the
// encoding, pipe and validation stages that follow it in a streaming run.
type discardSink struct{ steps int }

func (s *discardSink) AppendStep([]Op) error {
	s.steps++
	return nil
}

// BenchmarkQueuedBuild is the builder layer of the streaming pipeline:
// StreamQueuedEmbeddingProtocol into a discard sink. At 10⁵ guests the
// per-task arrays run to megabytes, well past L2, so the cost of walking
// the per-host task queues shows here as it does in `uninet bigsim`.
func BenchmarkQueuedBuild(b *testing.B) {
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(2)), 100000, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink discardSink
	for i := 0; i < b.N; i++ {
		sink = discardSink{}
		if err := StreamQueuedEmbeddingProtocol(guest, host, nil, 2, &sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sink.steps), "host-steps")
}
