package pebble

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"universalnet/internal/obs"
)

// Sharded streaming validation. The per-processor possession bitsets are
// independent by construction (PR 5's dense layout): every Generate and
// Send check reads only the acting processor's row, and every gain writes
// only the gaining processor's row. So validation shards by processor —
// shard s owns the contiguous processor range [s·m/S, (s+1)·m/S) — with a
// barrier as the only synchronization point. Send/receive matching crosses
// shards, but sends are unique per sender and receives unique per receiver
// (the one-op rule), so a (step, proc)-indexed, stamped table gives O(ops)
// matching with no locks: senders write their own slots in phase 1,
// receivers read them after the barrier in phase 2.
//
// Barriers are windowed: the coordinator buffers up to Window host steps,
// and one 4-barrier round validates the whole batch — per-step
// synchronization cost amortizes by the window size. Windowing is sound
// because gains are applied optimistically during the scan: a shard's scan
// of window step j sees exactly the possessions the sequential engine would
// at step j, since gains only ever touch the gaining processor's own row
// and each row is scanned by exactly one shard in step order. A wrong
// ACCEPT is therefore impossible; for a wrong ERROR, optimism can at worst
// manufacture errors at steps after a genuine one (a shard freezing at its
// first error stops consuming sends, say), so the verdict picks the
// lexicographically smallest (step, class, opIdx) across shards — provably
// the error the sequential engine reports. The equivalence suite pins this
// across shard counts and window sizes.
//
// This is the one implementation of the pebble rules. It keeps only the
// "lite" state — possession bitsets plus a generated-pebble bitset — which
// is what makes n = 10⁶ fit in RAM: memory is m·(T+1)·n/8 bytes of bitsets,
// independent of the number of operations. State (state.go) runs the
// sequential path of this engine and layers the lemma tables (holders,
// generators, first-held steps) on top; the map-based oracle suite pins
// both against an independent implementation.

// StreamStats summarizes a successfully validated stream.
type StreamStats struct {
	HostSteps  int
	Ops        int64
	Generates  int64
	Sends      int64
	Receives   int64
	MaxStepOps int
}

// Slowdown returns HostSteps/T for the validated horizon.
func (s *StreamStats) Slowdown(T int) float64 {
	if T == 0 {
		return 0
	}
	return float64(s.HostSteps) / float64(T)
}

// defaultBarrierWindow is the parallel validator's host-steps-per-barrier-
// round when ShardedOptions.Window is unset. Big-n steps are microseconds
// of work; 16 of them per 4-barrier round keeps synchronization under a
// percent of the step cost without letting the window arena grow past a
// few hundred KiB.
const defaultBarrierWindow = 16

// ShardedOptions configures ValidateSharded.
type ShardedOptions struct {
	// Shards is the number of parallel validation shards; values < 1 (and
	// values above the host size) are clamped. 1 runs inline with no
	// goroutines.
	Shards int
	// Window is the number of host steps validated per barrier round when
	// Shards > 1; values < 1 mean defaultBarrierWindow. Verdicts are
	// window-size-independent (see the package comment); only the
	// synchronization amortization changes.
	Window int
	// Obs, when non-nil, receives deterministic stream counters (steps, ops
	// by kind) — schedule-independent by construction, so experiment
	// metrics stay byte-identical across shard counts and window sizes.
	Obs *obs.Registry
}

// error classes, in rule precedence order: any op-scan error beats any
// unmatched-receive error beats any unmatched-send error, because a step
// is scanned in full before matching, and receives are matched before
// leftover sends are checked. Across a window, an earlier step's error of
// any class beats a later step's: sequential validation never reaches the
// later step. Within a class the smallest op index wins — exactly the op
// sequential validation would have tripped on first.
const (
	errClassNone = iota
	errClassScan
	errClassRecv
	errClassSend
)

// winError is a shard's best (earliest) error for the current window,
// ordered lexicographically by (step, class, opIdx). step is the global
// 1-based host step; 0 means no error.
type winError struct {
	step  int
	class int
	opIdx int
	err   error
}

func (e winError) before(o winError) bool {
	if e.step != o.step {
		return e.step < o.step
	}
	if e.class != o.class {
		return e.class < o.class
	}
	return e.opIdx < o.opIdx
}

// recvRec locates a Receive op in the window: step j, index opIdx within
// the step. The op itself stays in the window's op slice.
type recvRec struct{ j, opIdx int32 }

type shardedValidator struct {
	sp      Spec
	n, m, T int
	numIDs  int
	words   int
	shards  int
	win     int // max host steps per barrier round

	contains  []uint64   // m rows × words, owner-partitioned writes
	busyStamp []int32    // per processor, owner-only
	generated [][]uint64 // per shard: numIDs bits of "was generated"

	// trackFresh makes the sequential scan append to fresh the index of
	// every op whose gain sets a clear possession bit — the new gains
	// State records in its analysis tables. Off for plain validation.
	trackFresh bool
	fresh      []int32

	// Per-(window-step, sender) send table, slot j·m+q. Written by the
	// sender's shard in phase 1, read (and consumed) by receiver shards in
	// phase 2 after the barrier. A slot is live iff its stamp equals
	// stampOf(j).
	sendStamp    []int32
	sendTo       []int32
	sendID       []int32
	sendOpIdx    []int32
	sendConsumed []int32

	shardOf []int32 // processor → owning shard
	lo, hi  []int   // shard → owned processor range [lo, hi)

	// The published window: winSteps steps flattened into winOps, step j
	// being winOps[winStart[j]:winStart[j+1]]. In the sequential path
	// winOps aliases the caller's step; the parallel coordinator copies
	// steps into a reused arena before the publish barrier. stepBase is
	// the number of host steps fully validated before this window.
	winOps   []Op
	winStart []int32
	winSteps int
	stepBase int
	done     bool

	// Per-shard window results, reset by each shard at scan entry. sent
	// and matched count the window's registered sends and matched
	// receives; equal totals let settle skip its scan.
	errs          []winError
	recvs         [][]recvRec
	sent, matched []int64

	genCount, sendCount, recvCount []int64

	barrier spinBarrier
}

// spinBarrier is a sense-counting barrier for shards+coordinator. Rounds
// are microseconds of work, so spinning with Gosched beats channel wakeups
// by a wide margin; the atomics carry the happens-before edges the phases
// need.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// checkSpec rejects degenerate specs that the dense layout cannot represent
// (nil graphs, zero processors, negative horizons) with a graceful error
// instead of an index panic deep in the bitset setup.
func checkSpec(sp Spec) error {
	if sp.Guest == nil {
		return fmt.Errorf("pebble: stream spec: nil guest graph")
	}
	if sp.Host == nil {
		return fmt.Errorf("pebble: stream spec: nil host graph")
	}
	if sp.Host.N() == 0 {
		return fmt.Errorf("pebble: stream spec: host has no processors")
	}
	if sp.T < 0 {
		return fmt.Errorf("pebble: stream spec: negative horizon T=%d", sp.T)
	}
	return nil
}

// ValidateSharded replays a protocol stream against the lite sharded state
// and returns its stats. Accept/reject decisions — and the error for a
// rejected stream — are independent of the shard count and window, and
// identical to Validate (errors wrapped as "pebble: host step %d: ...",
// then the final-generator check). Source errors are returned verbatim.
func ValidateSharded(sp Spec, src StepSource, opts ShardedOptions) (*StreamStats, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	shards := opts.Shards
	window := opts.Window
	if window < 1 {
		window = defaultBarrierWindow
	}
	if shards < 1 {
		shards = 1
	}
	if shards == 1 {
		window = 1 // the sequential path needs no batching arena
	}
	v := newShardedValidator(sp, shards, window)
	stats := &StreamStats{}
	var runErr error
	if v.shards == 1 {
		runErr = v.runSequential(src, stats)
	} else {
		runErr = v.runParallel(src, stats)
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := v.finish(stats); err != nil {
		return nil, err
	}
	observeStream(opts.Obs, stats)
	return stats, nil
}

// newShardedValidator sets up the start configuration for sp, which the
// public entry points have vetted with checkSpec. Shard counts are clamped
// to [1, m]; a processor-less host keeps one shard, so every op reports
// "out of range" instead of indexing an empty shard table.
func newShardedValidator(sp Spec, shards, window int) *shardedValidator {
	n, m := sp.Guest.N(), sp.Host.N()
	if shards > m {
		shards = m
	}
	if shards < 1 {
		shards = 1
	}
	if window < 1 {
		window = 1
	}
	numIDs := (sp.T + 1) * n
	words := (numIDs + 63) / 64
	slots := m * window
	sendTables := make([]int32, 5*slots) // one allocation, five tables
	table := func(k int) []int32 { return sendTables[k*slots : (k+1)*slots : (k+1)*slots] }
	counters := make([]int64, 5*shards) // one allocation, five per-shard counters
	table64 := func(k int) []int64 { return counters[k*shards : (k+1)*shards : (k+1)*shards] }
	v := &shardedValidator{
		sp:     sp,
		n:      n,
		m:      m,
		T:      sp.T,
		numIDs: numIDs,
		words:  words,
		shards: shards,
		win:    window,

		contains:  make([]uint64, m*words),
		busyStamp: make([]int32, m),
		generated: make([][]uint64, shards),

		sendStamp:    table(0),
		sendTo:       table(1),
		sendID:       table(2),
		sendOpIdx:    table(3),
		sendConsumed: table(4),

		shardOf: make([]int32, m),
		lo:      make([]int, shards),
		hi:      make([]int, shards),

		winStart: make([]int32, window+1),

		errs:      make([]winError, shards),
		recvs:     make([][]recvRec, shards),
		sent:      table64(0),
		matched:   table64(1),
		genCount:  table64(2),
		sendCount: table64(3),
		recvCount: table64(4),
	}
	for s := 0; s < shards; s++ {
		v.generated[s] = make([]uint64, words)
		v.lo[s] = s * m / shards
		v.hi[s] = (s + 1) * m / shards
		for q := v.lo[s]; q < v.hi[s]; q++ {
			v.shardOf[q] = int32(s)
		}
	}
	// Start configuration: every processor holds all (P_i, 0) pebbles.
	for q := 0; q < m; q++ {
		row := v.contains[q*words : (q+1)*words]
		for w := 0; w < n/64; w++ {
			row[w] = ^uint64(0)
		}
		if r := uint(n) & 63; r != 0 {
			row[n/64] |= 1<<r - 1
		}
	}
	return v
}

// finish runs the final-generator check and folds the per-shard op
// counters into stats.
func (v *shardedValidator) finish(stats *StreamStats) error {
	if err := v.checkFinal(); err != nil {
		return err
	}
	for s := 0; s < v.shards; s++ {
		stats.Generates += v.genCount[s]
		stats.Sends += v.sendCount[s]
		stats.Receives += v.recvCount[s]
	}
	return nil
}

// checkFinal is Validate's last rule: every final pebble (P_i, T) was
// generated somewhere, merged across the shards' bitsets.
func (v *shardedValidator) checkFinal() error {
	base := v.T * v.n
	for i := 0; i < v.n; i++ {
		id := base + i
		found := false
		for s := 0; s < v.shards; s++ {
			if v.generated[s][id>>6]&(1<<(uint(id)&63)) != 0 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("pebble: final pebble (P%d,t%d) never generated", i, v.T)
		}
	}
	return nil
}

func observeStream(reg *obs.Registry, stats *StreamStats) {
	if reg == nil {
		return
	}
	reg.Counter("pebble.stream.validations").Inc()
	reg.Counter("pebble.stream.host_steps").Add(int64(stats.HostSteps))
	reg.Counter("pebble.stream.ops").Add(stats.Ops)
	reg.Counter("pebble.stream.ops.generate").Add(stats.Generates)
	reg.Counter("pebble.stream.ops.send").Add(stats.Sends)
	reg.Counter("pebble.stream.ops.receive").Add(stats.Receives)
	reg.Gauge("pebble.stream.max_step_ops").SetMax(int64(stats.MaxStepOps))
}

// StreamValidator is the incremental form of sequential ValidateSharded: an
// explicit push-style StepSink that validates one host step per AppendStep
// call against the lite bitset state. Verdicts — per-step errors and the
// Finish-time final-generator check — are byte-identical to ValidateSharded
// by construction: both run the same scan/match/settle code on the same
// state. Cost-model layers (internal/redblue) embed it so their replay can
// interleave accounting with validation without re-buffering the stream.
type StreamValidator struct {
	v     *shardedValidator
	stats StreamStats
	err   error
}

// NewStreamValidator builds an incremental validator for sp, rejecting
// degenerate specs (nil graphs, zero processors, negative horizons).
func NewStreamValidator(sp Spec) (*StreamValidator, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	return &StreamValidator{v: newShardedValidator(sp, 1, 1)}, nil
}

// AppendStep validates one host step. The ops slice is only read during the
// call. After the first error every subsequent call returns the same error.
func (sv *StreamValidator) AppendStep(ops []Op) error {
	if sv.err != nil {
		return sv.err
	}
	if err := sv.v.applyStepSeq(ops); err != nil {
		sv.err = hostStepError(sv.v.stepBase+1, err)
		return sv.err
	}
	sv.v.recordStep(&sv.stats, len(ops))
	return nil
}

// Steps reports the number of host steps validated so far.
func (sv *StreamValidator) Steps() int { return sv.stats.HostSteps }

// Finish runs the final-generator check and returns the stream stats. The
// validator is spent afterwards.
func (sv *StreamValidator) Finish() (*StreamStats, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	stats := sv.stats
	if err := sv.v.finish(&stats); err != nil {
		sv.err = err
		return nil, err
	}
	return &stats, nil
}

// applyStepSeq validates one step inline (single-shard window of one step,
// no barrier) and returns the rule violation unwrapped; callers add the
// host-step prefix. The step ops are aliased, not copied.
func (v *shardedValidator) applyStepSeq(ops []Op) error {
	v.winOps = ops
	v.winStart[0] = 0
	v.winStart[1] = int32(len(ops))
	v.winSteps = 1
	v.scanWindow(0)
	v.matchWindow(0)
	v.settleWindow(0)
	err := v.windowVerdict().err
	if err == nil {
		v.stepBase++
	}
	v.winOps = nil
	return err
}

// hostStepError prefixes a rule violation with its 1-based host step, the
// form every validation entry point reports.
func hostStepError(step int, err error) error {
	return fmt.Errorf("pebble: host step %d: %w", step, err)
}

func (v *shardedValidator) runSequential(src StepSource, stats *StreamStats) error {
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if e := v.applyStepSeq(ops); e != nil {
			return hostStepError(v.stepBase+1, e)
		}
		v.recordStep(stats, len(ops))
	}
}

// stampOf is the liveness stamp of window step j: its global 1-based host
// step number, which is unique across the run and shared by every table
// keyed on it (busyStamp, send slots).
func (v *shardedValidator) stampOf(j int) int32 {
	return int32(v.stepBase + j + 1)
}

// fillWindow copies up to v.win steps from src into the window arena.
// Returns the number of steps buffered; a non-nil error (io.EOF included)
// means the stream ended after those steps.
func (v *shardedValidator) fillWindow(src StepSource) (int, error) {
	v.winOps = v.winOps[:0]
	v.winSteps = 0
	for v.winSteps < v.win {
		ops, err := src.NextStep()
		if err != nil {
			return v.winSteps, err
		}
		v.winOps = append(v.winOps, ops...)
		v.winSteps++
		v.winStart[v.winSteps] = int32(len(v.winOps))
	}
	return v.winSteps, nil
}

func (v *shardedValidator) runParallel(src StepSource, stats *StreamStats) error {
	v.barrier.n = int32(v.shards) // coordinator doubles as shard 0
	v.winStart[0] = 0
	var wg sync.WaitGroup
	for s := 1; s < v.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				v.barrier.wait() // window published (or done)
				if v.done {
					return
				}
				v.scanWindow(s)
				v.barrier.wait() // all sends registered, all gains applied
				v.matchWindow(s)
				v.barrier.wait() // all consumption settled
				v.settleWindow(s)
				v.barrier.wait() // window verdicts readable
			}
		}(s)
	}
	var runErr error
	for {
		k, srcErr := v.fillWindow(src)
		if srcErr != nil && srcErr != io.EOF {
			runErr = srcErr
		}
		if k == 0 {
			v.done = true
			v.barrier.wait()
			break
		}
		v.barrier.wait() // publish the window
		v.scanWindow(0)
		v.barrier.wait()
		v.matchWindow(0)
		v.barrier.wait()
		v.settleWindow(0)
		v.barrier.wait()
		if e := v.windowVerdict(); e.err != nil {
			runErr = hostStepError(e.step, e.err)
			v.done = true
			v.barrier.wait() // release workers into the exit check
			break
		}
		for j := 0; j < k; j++ {
			v.recordStep(stats, int(v.winStart[j+1]-v.winStart[j]))
		}
		v.stepBase += k
		if srcErr != nil {
			v.done = true
			v.barrier.wait()
			break
		}
	}
	wg.Wait()
	return runErr
}

func (v *shardedValidator) recordStep(stats *StreamStats, opCount int) {
	stats.HostSteps++
	stats.Ops += int64(opCount)
	if opCount > stats.MaxStepOps {
		stats.MaxStepOps = opCount
	}
}

// windowVerdict selects the deterministic error of the just-validated
// window: smallest (step, class, opIdx) across shards — the error
// sequential validation reports (see the class comment). A zero winError
// (nil err) means the window is legal.
func (v *shardedValidator) windowVerdict() winError {
	best := winError{}
	for s := 0; s < v.shards; s++ {
		e := v.errs[s]
		if e.step == 0 {
			continue
		}
		if best.step == 0 || e.before(best) {
			best = e
		}
	}
	return best
}

func (v *shardedValidator) bit(q, id int) bool {
	return v.contains[q*v.words+id>>6]&(1<<(uint(id)&63)) != 0
}

// gain sets q's possession bit for id on behalf of op index oi.
func (v *shardedValidator) gain(oi, q, id int) {
	w := &v.contains[q*v.words+id>>6]
	b := uint64(1) << (uint(id) & 63)
	if v.trackFresh && *w&b == 0 {
		v.fresh = append(v.fresh, int32(oi))
	}
	*w |= b
}

func (v *shardedValidator) idOf(pb Type) (int, bool) {
	if pb.P < 0 || pb.P >= v.n || pb.T < 0 || pb.T > v.T {
		return 0, false
	}
	return pb.T*v.n + pb.P, true
}

// ownerOf routes out-of-range processors to shard 0, which then reports the
// same out-of-range error the sequential engine does.
func (v *shardedValidator) ownerOf(proc int) int {
	if proc < 0 || proc >= v.m {
		return 0
	}
	return int(v.shardOf[proc])
}

func (v *shardedValidator) fail(s, step, class, opIdx int, err error) {
	e := winError{step: step, class: class, opIdx: opIdx, err: err}
	if v.errs[s].step == 0 || e.before(v.errs[s]) {
		v.errs[s] = e
	}
}

// scanWindow is phase 1: per-op checks, send registration, and optimistic
// gains for every step of the window, restricted to ops whose processor the
// shard owns, in (step, op) order. Gains (Generate results and Receive
// pebbles) are applied to the possession bitsets immediately: they touch
// only the gaining processor's row, which only this shard scans, so within
// the shard step j+1 sees exactly the sequential engine's state — and
// unverified Receive gains are safe because a failed match always records
// an error that aborts the stream before the state is observed again. On
// the shard's first error the scan stops: later ops of this shard are
// unreachable for the sequential engine too, and cross-shard effects are
// screened by the (step, class) ordering.
func (v *shardedValidator) scanWindow(s int) {
	v.errs[s] = winError{}
	v.recvs[s] = v.recvs[s][:0]
	v.sent[s] = 0
	for j := 0; j < v.winSteps; j++ {
		ops := v.winOps[v.winStart[j]:v.winStart[j+1]]
		stamp := v.stampOf(j)
		jm := j * v.m
		for oi := range ops {
			op := &ops[oi]
			if v.shards > 1 && v.ownerOf(op.Proc) != s {
				continue
			}
			if op.Proc < 0 || op.Proc >= v.m {
				v.fail(s, int(stamp), errClassScan, oi, fmt.Errorf("processor %d out of range", op.Proc))
				return
			}
			if v.busyStamp[op.Proc] == stamp {
				v.fail(s, int(stamp), errClassScan, oi, fmt.Errorf("processor %d performs two operations", op.Proc))
				return
			}
			v.busyStamp[op.Proc] = stamp
			switch op.Kind {
			case Generate:
				if err := v.checkGenerate(op.Proc, op.Pebble); err != nil {
					v.fail(s, int(stamp), errClassScan, oi, err)
					return
				}
				id := op.Pebble.T*v.n + op.Pebble.P
				v.generated[s][id>>6] |= 1 << (uint(id) & 63)
				v.gain(oi, op.Proc, id)
				v.genCount[s]++
			case Send:
				if !v.sp.Host.HasEdge(op.Proc, op.Peer) {
					v.fail(s, int(stamp), errClassScan, oi, fmt.Errorf("send %v along non-edge %d→%d", op.Pebble, op.Proc, op.Peer))
					return
				}
				id, ok := v.idOf(op.Pebble)
				if !ok || !v.bit(op.Proc, id) {
					v.fail(s, int(stamp), errClassScan, oi, fmt.Errorf("processor %d sends pebble %v it does not hold", op.Proc, op.Pebble))
					return
				}
				slot := jm + op.Proc
				v.sendStamp[slot] = stamp
				v.sendTo[slot] = int32(op.Peer)
				v.sendID[slot] = int32(id)
				v.sendOpIdx[slot] = int32(oi)
				v.sendCount[s]++
				v.sent[s]++
			case Receive:
				v.recvs[s] = append(v.recvs[s], recvRec{j: int32(j), opIdx: int32(oi)})
				if id, ok := v.idOf(op.Pebble); ok {
					v.gain(oi, op.Proc, id)
				}
				v.recvCount[s]++
			default:
				v.fail(s, int(stamp), errClassScan, oi, fmt.Errorf("unknown op kind %v", op.Kind))
				return
			}
		}
	}
}

// matchWindow is phase 2: match the shard's receives against the global
// send table, in (step, op) order. Matching is order-independent — a send's
// destination and pebble identify its unique receiver — so concurrent
// consumption is race-free: each consumed slot is written by exactly one
// shard. The shard stops at its first unmatched receive; sends left
// unconsumed by the stop can only produce settle errors at the same step or
// later, which the verdict ordering screens.
func (v *shardedValidator) matchWindow(s int) {
	v.matched[s] = 0
	for _, r := range v.recvs[s] {
		op := &v.winOps[v.winStart[r.j]+r.opIdx]
		stamp := v.stampOf(int(r.j))
		matched := false
		if id, ok := v.idOf(op.Pebble); ok {
			from := op.Peer
			if from >= 0 && from < v.m {
				slot := int(r.j)*v.m + from
				if v.sendStamp[slot] == stamp &&
					v.sendTo[slot] == int32(op.Proc) &&
					v.sendID[slot] == int32(id) &&
					v.sendConsumed[slot] != stamp {
					v.sendConsumed[slot] = stamp
					v.matched[s]++
					matched = true
				}
			}
		}
		if !matched {
			v.fail(s, int(stamp), errClassRecv, int(r.opIdx),
				fmt.Errorf("processor %d receives %v from %d without a matching send", op.Proc, op.Pebble, op.Peer))
			return
		}
	}
}

// settleWindow is phase 3: report the shard's unmatched sends, earliest
// step first, smallest op index within the step — the sequential engine's
// pick. Every match consumed a distinct registered send, so when the
// window's totals agree no send is left over and the O(m) slot scan is
// skipped.
func (v *shardedValidator) settleWindow(s int) {
	var sent, matched int64
	for r := 0; r < v.shards; r++ {
		sent += v.sent[r]
		matched += v.matched[r]
	}
	if sent == matched {
		return
	}
	for j := 0; j < v.winSteps; j++ {
		stamp := v.stampOf(j)
		jm := j * v.m
		bestIdx, bestFrom := int32(-1), -1
		for q := v.lo[s]; q < v.hi[s]; q++ {
			slot := jm + q
			if v.sendStamp[slot] == stamp && v.sendConsumed[slot] != stamp {
				if bestIdx < 0 || v.sendOpIdx[slot] < bestIdx {
					bestIdx, bestFrom = v.sendOpIdx[slot], q
				}
			}
		}
		if bestFrom >= 0 {
			slot := jm + bestFrom
			id := int(v.sendID[slot])
			pb := Type{P: id % v.n, T: id / v.n}
			v.fail(s, int(stamp), errClassSend, int(bestIdx),
				fmt.Errorf("send of %v from %d to %d has no matching receive", pb, bestFrom, v.sendTo[slot]))
			return
		}
	}
}

func (v *shardedValidator) checkGenerate(q int, ty Type) error {
	if ty.T < 1 || ty.T > v.T {
		return fmt.Errorf("generate %v outside guest horizon [1,%d]", ty, v.T)
	}
	if ty.P < 0 || ty.P >= v.n {
		return fmt.Errorf("generate %v: no such guest processor", ty)
	}
	base := (ty.T - 1) * v.n
	if !v.bit(q, base+ty.P) {
		return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: ty.P, T: ty.T - 1})
	}
	for _, j := range v.sp.Guest.Neighbors(ty.P) {
		if !v.bit(q, base+j) {
			return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: j, T: ty.T - 1})
		}
	}
	return nil
}
