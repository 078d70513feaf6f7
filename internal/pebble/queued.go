package pebble

import (
	"fmt"

	"universalnet/internal/graph"
)

// StreamQueuedEmbeddingProtocol is the scalable sibling of
// StreamEmbeddingProtocol, built for guests far larger than the host
// (n ≫ m). It emits the same phased schedule shape — per guest step, a
// generation phase of maxLoad host steps followed by a distribution phase —
// but schedules the distribution with per-host FIFO task queues instead of
// rescanning the full task list every host step. Each host step costs
// O(m + transfers) instead of O(total tasks), which is the difference
// between minutes and weeks at n = 10⁶.
//
// Scheduling rule: hosts are scanned in index order; a free host forwards
// the head task of its queue one hop toward its destination if that hop is
// also free (head-of-line semantics — a blocked head blocks its queue for
// the step). Progress per host step is guaranteed: the first host whose
// head task is considered either moves it or was blocked by an earlier
// transfer this step.
//
// The ops slice handed to sink is reused across steps. The resulting
// protocol validates (the tests replay it through both engines); its exact
// step sequence differs from StreamEmbeddingProtocol's, so it is a distinct
// builder, not a drop-in replacement where byte-identical output matters.
func StreamQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	return streamPlan(guest, host, f, T, queuedRule, sink)
}

// queuedRule runs each distribution phase as per-host FIFO task queues.
// The queues start identical at every guest step (only the pebble's T
// differs), so they are laid out once as a template and copied per phase.
func queuedRule(p *embedPlan, sink StepSink) error {
	n, m := p.n, p.m
	// Task k carries guest taskP[k]'s pebble to host p.relDst[k].
	// tmplHead/tmplTail/tmplNext are the initial per-source FIFO queues.
	tasks := len(p.relDst)
	taskP := make([]int32, tasks)
	tmplNext := make([]int32, tasks)
	tmplHead := make([]int32, m)
	tmplTail := make([]int32, m)
	for q := 0; q < m; q++ {
		tmplHead[q], tmplTail[q] = -1, -1
	}
	totalHops := 0
	for i := 0; i < n; i++ {
		src := p.f[i]
		for k := p.relOff[i]; k < p.relOff[i+1]; k++ {
			taskP[k] = int32(i)
			tmplNext[k] = -1
			if tmplTail[src] < 0 {
				tmplHead[src] = k
			} else {
				tmplNext[tmplTail[src]] = k
			}
			tmplTail[src] = k
			totalHops += p.dist[p.relDst[k]][src]
		}
	}
	// Stall guard for one distribution phase: every host step forwards at
	// least one task one hop, so the phase ends within totalHops steps;
	// the slack allows empty scans around phase boundaries.
	maxSteps := 4*totalHops + 4*m + 16

	next := make([]int32, tasks)
	head := make([]int32, m)
	tail := make([]int32, m)
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	var opsBuf []Op
	var err error

	for t := 1; t <= p.T; t++ {
		if opsBuf, err = p.emitGeneration(opsBuf, t, sink); err != nil {
			return err
		}
		if t == p.T {
			break // final pebbles need not be distributed
		}

		// Distribution phase: reset the queues from the template and run
		// the head-of-line forwarding schedule.
		copy(next, tmplNext)
		copy(head, tmplHead)
		copy(tail, tmplTail)
		pending := tasks
		guard := 0
		for pending > 0 {
			guard++
			if guard > maxSteps {
				return fmt.Errorf("pebble: distribution stalled at guest step %d", t)
			}
			busyEpoch++
			opsBuf = opsBuf[:0]
			moved := 0
			for q := 0; q < m; q++ {
				if busyStamp[q] == busyEpoch || head[q] < 0 {
					continue
				}
				id := head[q]
				dst := int(p.relDst[id])
				v := int(p.nhop[dst][q])
				if busyStamp[v] == busyEpoch {
					continue // head-of-line: queue waits for the next step
				}
				// Pop from q, transfer, and settle at v.
				head[q] = next[id]
				if head[q] < 0 {
					tail[q] = -1
				}
				next[id] = -1
				busyStamp[q] = busyEpoch
				busyStamp[v] = busyEpoch
				moved++
				pb := Type{P: int(taskP[id]), T: t}
				opsBuf = append(opsBuf, Op{Kind: Send, Proc: q, Pebble: pb, Peer: v})
				opsBuf = append(opsBuf, Op{Kind: Receive, Proc: v, Pebble: pb, Peer: q})
				if dst == v {
					pending--
				} else {
					if tail[v] < 0 {
						head[v] = id
					} else {
						next[tail[v]] = id
					}
					tail[v] = id
				}
			}
			if moved == 0 {
				return fmt.Errorf("pebble: no progress in distribution at guest step %d", t)
			}
			if err := sink.AppendStep(opsBuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildQueuedEmbeddingProtocol materializes the queued builder's schedule —
// the small-n form used by the equivalence tests; big runs stream instead.
func BuildQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	return materializePlan(guest, host, f, T, queuedRule)
}
