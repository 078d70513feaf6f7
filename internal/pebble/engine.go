package pebble

import (
	"fmt"
	"io"

	"universalnet/internal/obs"
)

// The pebble-rule engine. Validation replays the host steps one after
// another, as the game of §3.1 is defined, in three passes per step:
//
//  1. scan: every op in order — the one-op rule, Generate's predecessors,
//     Send's edge and possession — registering each send in its sender's
//     slot and applying gains (Generate results, Receive pebbles) at once;
//  2. match: every Receive consumes the send its peer registered;
//  3. settle: the first Send no receive consumed is an error.
//
// The first violation ends the replay. Applying gains during the scan is
// exact: the one-op rule means a processor's row is touched by no other op
// of its step, and an unverified Receive gain never outlives its step,
// because a failed match ends the replay.
//
// This is the one implementation of the pebble rules. It keeps only the
// "lite" state — possession bitsets plus a generated-pebble bitset — which
// is what makes n = 10⁶ fit in RAM: memory is m·(T+1)·n/8 bytes of bitsets,
// independent of the number of operations. State (state.go) layers the
// lemma tables (holders, generators, first-held steps) on top; the
// map-based oracle suite pins both against an independent implementation.
// The engine is single-threaded on purpose: a processor-sharded variant
// with windowed barriers lost to it end to end on the hardware we measure
// on (DESIGN.md §7).

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

// ShardedOptions configures ValidateSharded.
type ShardedOptions struct {
	// Shards is ignored (validation is sequential); kept so existing callers compile.
	Shards int
	// Obs, when non-nil, receives deterministic stream counters (steps, ops
	// by kind), so experiment metrics are pure functions of the stream.
	Obs *obs.Registry
}

type ruleEngine struct {
	sp      Spec
	n, m, T int
	numIDs  int
	words   int

	contains  []uint64 // m rows × words of possession bits
	generated []uint64 // numIDs bits of "was generated"
	busyStamp []int32  // per processor: stamp of the step of its last op

	// Per-sender send slot of the current step: live iff sendStamp[q]
	// equals the step's stamp. A matching receive consumes the send by
	// clearing its stamp. Stamps are 1-based host steps, so 0 is never live.
	sendStamp []int32
	sendTo    []int32
	sendID    []int32

	// trackFresh makes the scan append to fresh the index of every op whose
	// gain sets a clear possession bit — the new gains State records in its
	// analysis tables. Off for plain validation.
	trackFresh bool
	fresh      []int32

	steps                      int // host steps accepted so far
	generates, sends, receives int64
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

// ValidateSharded replays a protocol stream through the rule engine and
// returns its stats. The name predates the single-threaded engine and stays
// for existing callers. Errors are identical to Validate's (wrapped as
// "pebble: host step %d: ...", then the final-generator check); source
// errors are returned verbatim.
func ValidateSharded(sp Spec, src StepSource, opts ShardedOptions) (*StreamStats, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	e := newRuleEngine(sp)
	stats := &StreamStats{}
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := e.applyStep(ops); err != nil {
			return nil, hostStepError(e.steps+1, err)
		}
		recordStep(stats, len(ops))
	}
	if err := e.finish(stats); err != nil {
		return nil, err
	}
	observeStream(opts.Obs, stats)
	return stats, nil
}

// newRuleEngine sets up the start configuration for sp, which the public
// entry points have vetted with checkSpec.
func newRuleEngine(sp Spec) *ruleEngine {
	n, m := sp.Guest.N(), sp.Host.N()
	numIDs := (sp.T + 1) * n
	words := (numIDs + 63) / 64
	sendTables := make([]int32, 3*m) // one allocation, three tables
	table := func(k int) []int32 { return sendTables[k*m : (k+1)*m : (k+1)*m] }
	e := &ruleEngine{
		sp:     sp,
		n:      n,
		m:      m,
		T:      sp.T,
		numIDs: numIDs,
		words:  words,

		contains:  make([]uint64, m*words),
		generated: make([]uint64, words),
		busyStamp: make([]int32, m),

		sendStamp: table(0),
		sendTo:    table(1),
		sendID:    table(2),
	}
	// Start configuration: every processor holds all (P_i, 0) pebbles.
	for q := 0; q < m; q++ {
		row := e.contains[q*words : (q+1)*words]
		for w := 0; w < n/64; w++ {
			row[w] = ^uint64(0)
		}
		if r := uint(n) & 63; r != 0 {
			row[n/64] |= 1<<r - 1
		}
	}
	return e
}

// finish runs the final-generator check and folds the op counters into
// stats.
func (e *ruleEngine) finish(stats *StreamStats) error {
	if err := e.checkFinal(); err != nil {
		return err
	}
	stats.Generates += e.generates
	stats.Sends += e.sends
	stats.Receives += e.receives
	return nil
}

// checkFinal is Validate's last rule: every final pebble (P_i, T) was
// generated somewhere.
func (e *ruleEngine) checkFinal() error {
	base := e.T * e.n
	for i := 0; i < e.n; i++ {
		if id := base + i; e.generated[id>>6]&(1<<(uint(id)&63)) == 0 {
			return fmt.Errorf("pebble: final pebble (P%d,t%d) never generated", i, e.T)
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

// StreamValidator is the incremental form of ValidateSharded: an explicit
// push-style StepSink that validates one host step per AppendStep call
// against the lite bitset state. Verdicts — per-step errors and the
// Finish-time final-generator check — are byte-identical to ValidateSharded
// by construction: both run the same engine on the same state. Cost-model
// layers (internal/redblue) embed it so their replay can interleave
// accounting with validation without re-buffering the stream.
type StreamValidator struct {
	e     *ruleEngine
	stats StreamStats
	err   error
}

// NewStreamValidator builds an incremental validator for sp, rejecting
// degenerate specs (nil graphs, zero processors, negative horizons).
func NewStreamValidator(sp Spec) (*StreamValidator, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	return &StreamValidator{e: newRuleEngine(sp)}, nil
}

// AppendStep validates one host step. The ops slice is only read during the
// call. After the first error every subsequent call returns the same error.
func (sv *StreamValidator) AppendStep(ops []Op) error {
	if sv.err != nil {
		return sv.err
	}
	if err := sv.e.applyStep(ops); err != nil {
		sv.err = hostStepError(sv.e.steps+1, err)
		return sv.err
	}
	recordStep(&sv.stats, len(ops))
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
	if err := sv.e.finish(&stats); err != nil {
		sv.err = err
		return nil, err
	}
	return &stats, nil
}

// hostStepError prefixes a rule violation with its 1-based host step, the
// form every validation entry point reports.
func hostStepError(step int, err error) error {
	return fmt.Errorf("pebble: host step %d: %w", step, err)
}

func recordStep(stats *StreamStats, opCount int) {
	stats.HostSteps++
	stats.Ops += int64(opCount)
	if opCount > stats.MaxStepOps {
		stats.MaxStepOps = opCount
	}
}

// applyStep validates and applies one host step and returns the first rule
// violation, unwrapped; callers add the host-step prefix. After an error
// the engine is spent: possession is unspecified.
func (e *ruleEngine) applyStep(ops []Op) error {
	stamp := int32(e.steps + 1)
	sent, err := e.scan(ops, stamp)
	if err != nil {
		return err
	}
	matched, err := e.match(ops, stamp)
	if err != nil {
		return err
	}
	// Every match consumed a distinct send, so a send is left over exactly
	// when the counts differ.
	if matched != sent {
		return e.settle(ops, stamp)
	}
	e.steps++
	return nil
}

func (e *ruleEngine) bit(q, id int) bool {
	return e.contains[q*e.words+id>>6]&(1<<(uint(id)&63)) != 0
}

// gain sets q's possession bit for id on behalf of op index oi.
func (e *ruleEngine) gain(oi, q, id int) {
	w := &e.contains[q*e.words+id>>6]
	b := uint64(1) << (uint(id) & 63)
	if e.trackFresh && *w&b == 0 {
		e.fresh = append(e.fresh, int32(oi))
	}
	*w |= b
}

func (e *ruleEngine) idOf(pb Type) (int, bool) {
	if pb.P < 0 || pb.P >= e.n || pb.T < 0 || pb.T > e.T {
		return 0, false
	}
	return pb.T*e.n + pb.P, true
}

// scan is pass 1: per-op checks in op order, send registration, and gains.
// It returns the number of sends registered.
func (e *ruleEngine) scan(ops []Op, stamp int32) (sent int, err error) {
	for oi := range ops {
		op := &ops[oi]
		if op.Proc < 0 || op.Proc >= e.m {
			return 0, fmt.Errorf("processor %d out of range", op.Proc)
		}
		if e.busyStamp[op.Proc] == stamp {
			return 0, fmt.Errorf("processor %d performs two operations", op.Proc)
		}
		e.busyStamp[op.Proc] = stamp
		switch op.Kind {
		case Generate:
			if err := e.checkGenerate(op.Proc, op.Pebble); err != nil {
				return 0, err
			}
			id := op.Pebble.T*e.n + op.Pebble.P
			e.generated[id>>6] |= 1 << (uint(id) & 63)
			e.gain(oi, op.Proc, id)
			e.generates++
		case Send:
			if !e.sp.Host.HasEdge(op.Proc, op.Peer) {
				return 0, fmt.Errorf("send %v along non-edge %d→%d", op.Pebble, op.Proc, op.Peer)
			}
			id, ok := e.idOf(op.Pebble)
			if !ok || !e.bit(op.Proc, id) {
				return 0, fmt.Errorf("processor %d sends pebble %v it does not hold", op.Proc, op.Pebble)
			}
			e.sendStamp[op.Proc] = stamp
			e.sendTo[op.Proc] = int32(op.Peer)
			e.sendID[op.Proc] = int32(id)
			e.sends++
			sent++
		case Receive:
			if id, ok := e.idOf(op.Pebble); ok {
				e.gain(oi, op.Proc, id)
			}
			e.receives++
		default:
			return 0, fmt.Errorf("unknown op kind %v", op.Kind)
		}
	}
	return sent, nil
}

// match is pass 2: every Receive, in op order, consumes the live send of
// its peer, which must name the receiver and the pebble. It returns the
// number of receives matched.
func (e *ruleEngine) match(ops []Op, stamp int32) (matched int, err error) {
	for oi := range ops {
		op := &ops[oi]
		if op.Kind != Receive {
			continue
		}
		id, ok := e.idOf(op.Pebble)
		from := op.Peer
		if !ok || from < 0 || from >= e.m ||
			e.sendStamp[from] != stamp ||
			e.sendTo[from] != int32(op.Proc) ||
			e.sendID[from] != int32(id) {
			return 0, fmt.Errorf("processor %d receives %v from %d without a matching send", op.Proc, op.Pebble, op.Peer)
		}
		e.sendStamp[from] = 0
		matched++
	}
	return matched, nil
}

// settle is pass 3: the first Send, in op order, that no receive consumed.
func (e *ruleEngine) settle(ops []Op, stamp int32) error {
	for oi := range ops {
		if op := &ops[oi]; op.Kind == Send && e.sendStamp[op.Proc] == stamp {
			return fmt.Errorf("send of %v from %d to %d has no matching receive", op.Pebble, op.Proc, op.Peer)
		}
	}
	return nil
}

func (e *ruleEngine) checkGenerate(q int, ty Type) error {
	if ty.T < 1 || ty.T > e.T {
		return fmt.Errorf("generate %v outside guest horizon [1,%d]", ty, e.T)
	}
	if ty.P < 0 || ty.P >= e.n {
		return fmt.Errorf("generate %v: no such guest processor", ty)
	}
	base := (ty.T - 1) * e.n
	if !e.bit(q, base+ty.P) {
		return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: ty.P, T: ty.T - 1})
	}
	for _, j := range e.sp.Guest.Neighbors(ty.P) {
		if !e.bit(q, base+j) {
			return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: j, T: ty.T - 1})
		}
	}
	return nil
}
