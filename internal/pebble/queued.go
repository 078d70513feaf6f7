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
// step sequence differs from BuildEmbeddingProtocol's, so it is a distinct
// builder, not a drop-in replacement where byte-identical output matters.
func StreamQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	return streamPlan(guest, host, f, T, queuedRule, sink)
}

// queuedTask is one distribution task: carry guest's pebble to host dst.
type queuedTask struct{ guest, dst int32 }

// taskQueues holds one FIFO of tasks per host. Each queue is a chain of
// fixed-size blocks: pops read the head block front to back and pushes
// fill the tail block front to back, so a queue is walked in order in
// memory, and a block returns to the shared free list once its last task
// is popped. A chain of k blocks holds its live tasks plus less than one
// block of spent slots at each end, so k < live/blockLen + 2; as a task is
// in at most one queue, ⌈tasks/blockLen⌉ + 2m blocks never run out, and the
// pool is allocated once at that size.
type taskQueues struct {
	pool     []queuedTask // block b is pool[b*blockLen : (b+1)*blockLen]
	next     []int32      // the block after b in its chain or the free list
	free     int32        // first free block, -1 if none
	blockLen int
	hosts    []hostQueue
}

// hostQueue is one host's chain. Its head task is copied into front, so
// the per-step scan over every host reads only the hosts array and a
// cache miss on the pool is taken by the pop, off the scan's path.
type hostQueue struct {
	front      queuedTask // the head task while n > 0
	head, tail int32      // first and last block; head is -1 when the chain is empty
	hi, ti     int32      // next slot to pop in head, next slot to fill in tail
	n          int32
}

// newTaskQueues sizes the pool for m hosts sharing tasks tasks. Blocks run
// to 256 tasks (2 KiB) but shrink so that the 2m blocks of end slack stay
// within about a quarter of the tasks on small inputs.
func newTaskQueues(m, tasks int) *taskQueues {
	blockLen := min(256, max(1, tasks/(8*m)))
	blocks := (tasks+blockLen-1)/blockLen + 2*m
	return &taskQueues{
		pool:     make([]queuedTask, blocks*blockLen),
		next:     make([]int32, blocks),
		blockLen: blockLen,
		hosts:    make([]hostQueue, m),
	}
}

// clear empties every queue and puts every block on the free list.
func (qs *taskQueues) clear() {
	for b := range qs.next {
		qs.next[b] = int32(b + 1)
	}
	qs.next[len(qs.next)-1] = -1
	qs.free = 0
	for q := range qs.hosts {
		qs.hosts[q] = hostQueue{head: -1}
	}
}

// push appends tk to host q's queue.
func (qs *taskQueues) push(q int, tk queuedTask) {
	h := &qs.hosts[q]
	if h.head < 0 || int(h.ti) == qs.blockLen {
		b := qs.free
		qs.free, qs.next[b] = qs.next[b], -1
		if h.head < 0 {
			h.head, h.hi = b, 0
		} else {
			qs.next[h.tail] = b
		}
		h.tail, h.ti = b, 0
	}
	qs.pool[int(h.tail)*qs.blockLen+int(h.ti)] = tk
	h.ti++
	if h.n == 0 {
		h.front = tk
	}
	h.n++
}

// pop removes and returns host q's head task; the queue must not be empty.
func (qs *taskQueues) pop(q int) queuedTask {
	h := &qs.hosts[q]
	tk := h.front
	h.n--
	if h.hi++; int(h.hi) == qs.blockLen {
		b := h.head
		h.head, h.hi = qs.next[b], 0
		qs.next[b], qs.free = qs.free, b
	}
	if h.n > 0 {
		h.front = qs.pool[int(h.head)*qs.blockLen+int(h.hi)]
	}
	return tk
}

// queuedRule runs each distribution phase as per-host FIFO task queues.
// Every phase starts from the same queues (only the pebble's T differs):
// host q's queue holds the tasks of q's guests in ascending guest order,
// each guest's in relation order, read straight from the plan's per-host
// guest lists and per-guest relation.
func queuedRule(p *embedPlan, sink StepSink) error {
	m := p.m
	totalHops := 0
	for i, src := range p.f {
		for _, dst := range p.relDst[p.relOff[i]:p.relOff[i+1]] {
			totalHops += p.dist[dst][src]
		}
	}
	// Stall guard for one distribution phase: every host step forwards at
	// least one task one hop, so the phase ends within totalHops steps;
	// the slack allows empty scans around phase boundaries.
	maxSteps := 4*totalHops + 4*m + 16

	qs := newTaskQueues(m, len(p.relDst))
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

		// Distribution phase: refill the queues and run the head-of-line
		// forwarding schedule.
		qs.clear()
		for q := 0; q < m; q++ {
			for _, i := range p.guestIDs[p.guestOff[q]:p.guestOff[q+1]] {
				for _, dst := range p.relDst[p.relOff[i]:p.relOff[i+1]] {
					qs.push(q, queuedTask{guest: i, dst: dst})
				}
			}
		}
		pending := len(p.relDst)
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
				if busyStamp[q] == busyEpoch || qs.hosts[q].n == 0 {
					continue
				}
				dst := int(qs.hosts[q].front.dst)
				v := int(p.nhop[dst][q])
				if busyStamp[v] == busyEpoch {
					continue // head-of-line: queue waits for the next step
				}
				// Pop from q, transfer, and settle at v.
				tk := qs.pop(q)
				busyStamp[q] = busyEpoch
				busyStamp[v] = busyEpoch
				moved++
				pb := Type{P: int(tk.guest), T: t}
				opsBuf = append(opsBuf, Op{Kind: Send, Proc: q, Pebble: pb, Peer: v})
				opsBuf = append(opsBuf, Op{Kind: Receive, Proc: v, Pebble: pb, Peer: q})
				if dst == v {
					pending--
				} else {
					qs.push(v, tk)
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
