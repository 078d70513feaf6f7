package universal

import (
	"errors"
	"fmt"
	"math/rand"

	"universalnet/internal/faults"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
)

// ErrUnrecoverable is returned when a fault kills the last copy of some
// guest state (every replica of a guest crashed, survivors got partitioned
// away, or a routing phase lost packets beyond the retry budget). The
// simulator never fabricates a trace: either the reconstructed guest trace
// is byte-identical to direct execution, or the run ends with this error.
var ErrUnrecoverable = errors.New("universal: unrecoverable fault")

// FaultTolerantSimulator runs Theorem 2.1-style simulation under a fault
// plan. It is the dynamic probe of the paper's trade-off: a crash of k host
// processors forces the run from size m down to m−k, and the reported
// slowdown measures the move along the m·s = Ω(n·log m) curve.
//
// With no plan it is the replicated simulator of the m ≥ n regime. The
// paper's §1 observes that dynamic embeddings (several representatives per
// guest processor) increase efficiency when m > n ([14]: an n^{1+ε}-size
// universal network with constant slowdown) but not when m ≤ n (this
// paper's tightness result). Each guest is simulated by one or more
// replicas on distinct hosts; every replica recomputes the guest step
// locally and fetches each neighbor's state from the NEAREST replica of that
// neighbor, so replication multiplies compute work by r but shrinks routing
// distances — the trade the m > n regime exploits (E16).
//
// The same redundancy is the recovery substrate under faults. When a host
// crashes,
//
//   - guests whose primary replica died fail over to the surviving replica
//     nearest to the crash site;
//   - lost replicas are re-embedded onto the least-loaded surviving hosts
//     (balanced re-assignment), restoring the replication degree;
//   - a guest with no surviving replica is gone — the run returns
//     ErrUnrecoverable rather than a wrong trace.
//
// Message drops and corruptions force bounded retry rounds in each routing
// phase; permanent link failures degrade the host graph in place. All
// recovery decisions are deterministic (sorted iteration, lowest-id ties,
// hash-derived packet fates), so a plan plus a seed names one exact
// execution.
type FaultTolerantSimulator struct {
	Host *Host
	// Replicas[i] lists the host processors simulating guest i (non-empty,
	// distinct); PlaceReplicas draws a random balanced placement. Nil
	// selects the balanced single assignment i mod m (no redundancy: any
	// crash of a populated host is fatal).
	Replicas [][]int
	// Plan is the fault schedule; nil means an ideal host.
	Plan *faults.Plan
	// Obs, when non-nil, receives the run's fault counters (failover and
	// re-embedding events included), host-step histogram, and a run span.
	Obs *obs.Registry
}

// PlaceReplicas assigns r distinct random host processors to each of n
// guests, balancing load (total replica count r·n may exceed m; a host may
// hold replicas of several guests but at most one replica of each).
func PlaceReplicas(n, m, r int, rng *rand.Rand) ([][]int, error) {
	if r < 1 || r > m {
		return nil, fmt.Errorf("universal: replication factor %d outside [1,%d]", r, m)
	}
	replicas := make([][]int, n)
	for i := 0; i < n; i++ {
		perm := rng.Perm(m)
		replicas[i] = append([]int(nil), perm[:r]...)
	}
	return replicas, nil
}

// FaultReport extends RunReport with fault accounting.
type FaultReport struct {
	RunReport
	Counters       faults.Counters
	InitialHosts   int // m before any fault
	SurvivingHosts int // m − crashes at the end of the run
	Replication    int // largest replica count of any guest at the start
	// AvgFetchDist is the mean host distance of the initial placement's
	// neighbor fetches, each from the nearest replica (0 for a local one).
	AvgFetchDist float64
}

// Run simulates T steps of c under the plan. On success the returned trace
// is verified reconstructible; on unrecoverable faults the error wraps
// ErrUnrecoverable and no trace is returned.
func (ft *FaultTolerantSimulator) Run(c *sim.Computation, T int) (*FaultReport, error) {
	guest := c.G
	n, m := guest.N(), ft.Host.Graph.N()
	if T < 0 {
		return nil, fmt.Errorf("universal: negative T")
	}
	replicas := ft.Replicas
	if replicas == nil {
		replicas = make([][]int, n)
		for i := range replicas {
			replicas[i] = []int{i % m}
		}
	}
	if len(replicas) != n {
		return nil, fmt.Errorf("universal: replica table has %d rows for %d guests", len(replicas), n)
	}
	// Deep-copy: recovery mutates the table.
	reps := make([][]int, n)
	targetR := make([]int, n)
	for i, r := range replicas {
		if len(r) == 0 {
			return nil, fmt.Errorf("universal: guest %d has no replicas", i)
		}
		seen := make(map[int]bool)
		for _, q := range r {
			if q < 0 || q >= m {
				return nil, fmt.Errorf("universal: guest %d replica on invalid host %d", i, q)
			}
			if seen[q] {
				return nil, fmt.Errorf("universal: guest %d has duplicate replica host %d", i, q)
			}
			seen[q] = true
		}
		reps[i] = append([]int(nil), r...)
		targetR[i] = len(r)
	}
	plan := ft.Plan
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		for _, cr := range plan.Crashes {
			if cr.Host >= m {
				return nil, fmt.Errorf("universal: plan crashes host %d outside [0,%d)", cr.Host, m)
			}
		}
	}

	rep := &FaultReport{InitialHosts: m}
	for _, r := range reps {
		if len(r) > rep.Replication {
			rep.Replication = len(r)
		}
	}
	rep.GuestSteps = T

	// Degraded-host bookkeeping. Distances are recomputed from scratch
	// whenever the active graph changes (crash or link failure).
	crashed := make(map[int]bool)
	failed := make(map[graph.Edge]bool)
	active := ft.Host.Graph
	distCache := make(map[int][]int)
	distFrom := func(src int) []int {
		if d, ok := distCache[src]; ok {
			return d
		}
		d := active.BFS(src)
		distCache[src] = d
		return d
	}
	// Full-graph distances for failover target selection: the crash site is
	// isolated in the degraded graph, so "nearest surviving replica" is
	// measured on the original host.
	fullDist := make(map[int][]int)
	fullFrom := func(src int) []int {
		if d, ok := fullDist[src]; ok {
			return d
		}
		d := ft.Host.Graph.BFS(src)
		fullDist[src] = d
		return d
	}

	// Replica-local states: state[i][ri] belongs to replica ri of guest i.
	state := make([][]sim.State, n)
	for i := range state {
		state[i] = make([]sim.State, len(reps[i]))
		for ri := range state[i] {
			state[i][ri] = c.Init[i]
		}
	}
	trace := &sim.Trace{States: make([][]sim.State, T+1)}
	trace.States[0] = append([]sim.State(nil), c.Init...)

	// Communication demands, recomputed whenever topology or placement
	// changes.
	type fetch struct {
		guest   int // whose state moves
		from    int
		forRepl int // index into reps[neighJ]
		neighJ  int // the fetching guest
	}
	var fetches []fetch
	var pairs []routing.Pair
	maxLoad := 0
	fetchDist, fetchCount := 0, 0
	rebuildDemands := func() error {
		fetches = fetches[:0]
		pairs = pairs[:0]
		fetchDist, fetchCount = 0, 0
		load := make([]int, m)
		for _, r := range reps {
			for _, q := range r {
				load[q]++
			}
		}
		maxLoad = 0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		for j := 0; j < n; j++ {
			for ri, q := range reps[j] {
				for _, i := range guest.Neighbors(j) {
					src, best := -1, -1
					for _, p := range reps[i] {
						d := distFrom(p)[q]
						if d < 0 {
							continue
						}
						if best < 0 || d < best {
							src, best = p, d
						}
					}
					if src < 0 {
						return fmt.Errorf("universal: guest %d partitioned from every replica of neighbor %d: %w",
							j, i, ErrUnrecoverable)
					}
					fetchDist += best
					fetchCount++
					if src != q {
						fetches = append(fetches, fetch{guest: i, from: src, forRepl: ri, neighJ: j})
						pairs = append(pairs, routing.Pair{Src: src, Dst: q})
					}
				}
			}
		}
		return nil
	}
	if err := rebuildDemands(); err != nil {
		return nil, err
	}
	placementDirty := false
	if fetchCount > 0 {
		rep.AvgFetchDist = float64(fetchDist) / float64(fetchCount)
	}

	hostStepHist := ft.Obs.Histogram("universal.host_steps_per_guest_step", hostStepBuckets)
	sp := ft.Obs.StartSpan("universal.ft.run",
		obs.KV("guest", c.Name), obs.KV("n", n), obs.KV("m", m), obs.KV("steps", T))
	defer sp.End()

	nbuf := make([]sim.State, 0, guest.MaxDegree())
	for t := 1; t <= T; t++ {
		// 1. Apply scheduled faults at the start of the step.
		topoDirty := false
		for _, h := range plan.CrashesAt(t) {
			if crashed[h] {
				continue
			}
			crashed[h] = true
			rep.Counters.Crashed++
			topoDirty = true
		}
		for _, e := range plan.LinkFailuresAt(t) {
			if failed[e] || crashed[e.U] || crashed[e.V] || !ft.Host.Graph.HasEdge(e.U, e.V) {
				continue
			}
			failed[e] = true
			rep.Counters.LinksDown++
			topoDirty = true
		}
		if topoDirty {
			active = faults.Degrade(ft.Host.Graph, crashed, failed)
			distCache = make(map[int][]int)
			placementDirty = true
		}

		// 2. Recover: drop dead replicas, fail over primaries, re-embed.
		if topoDirty {
			load := make([]int, m)
			for _, r := range reps {
				for _, q := range r {
					if !crashed[q] {
						load[q]++
					}
				}
			}
			for i := 0; i < n; i++ {
				oldPrimary := reps[i][0]
				survivors := reps[i][:0]
				var liveStates []sim.State
				for ri, q := range reps[i] {
					if crashed[q] {
						continue
					}
					survivors = append(survivors, q)
					liveStates = append(liveStates, state[i][ri])
				}
				reps[i] = survivors
				state[i] = liveStates
				if len(reps[i]) == 0 {
					return nil, fmt.Errorf("universal: guest %d lost every replica at step %d (last on host %d): %w",
						i, t, oldPrimary, ErrUnrecoverable)
				}
				if crashed[oldPrimary] {
					// Failover: promote the surviving replica nearest to the
					// crash site (full-graph distance; ties → list order,
					// which is ascending placement order).
					best, bd := 0, -1
					for ri, q := range reps[i] {
						d := fullFrom(oldPrimary)[q]
						if d >= 0 && (bd < 0 || d < bd) {
							best, bd = ri, d
						}
					}
					reps[i][0], reps[i][best] = reps[i][best], reps[i][0]
					state[i][0], state[i][best] = state[i][best], state[i][0]
					rep.Counters.FailedOver++
				}
				// Re-embed lost replicas onto least-loaded surviving hosts
				// (balanced re-assignment; ties → lowest host id).
				for len(reps[i]) < targetR[i] {
					holds := make(map[int]bool, len(reps[i]))
					for _, q := range reps[i] {
						holds[q] = true
					}
					dst := -1
					for q := 0; q < m; q++ {
						if crashed[q] || holds[q] {
							continue
						}
						if dst < 0 || load[q] < load[dst] {
							dst = q
						}
					}
					if dst < 0 {
						break // fewer survivors than the replication degree
					}
					reps[i] = append(reps[i], dst)
					state[i] = append(state[i], state[i][0])
					load[dst]++
					rep.Counters.ReEmbedded++
				}
			}
			placementDirty = true
		}

		// 3. Communication demands for this step's topology and placement.
		if placementDirty {
			if err := rebuildDemands(); err != nil {
				return nil, err
			}
			placementDirty = false
		}

		// 4. Distribution phase under the message-fault model.
		stepRoute := 0
		if len(pairs) > 0 {
			res, err := faults.RoutePhase(ft.Host.Router, active, &routing.Problem{N: m, Pairs: pairs}, plan, t)
			rep.Counters.Add(res.Counters)
			if err != nil {
				if errors.Is(err, faults.ErrPhaseLost) {
					return nil, fmt.Errorf("universal: step %d: %v: %w", t, err, ErrUnrecoverable)
				}
				return nil, fmt.Errorf("universal: fault-tolerant routing at step %d: %w", t, err)
			}
			rep.RouteSteps += res.Steps
			stepRoute = res.Steps
		}
		inbox := make(map[[3]int]sim.State) // (j, ri, i) → fetched state
		for _, f := range fetches {
			srcIdx := -1
			for ri, q := range reps[f.guest] {
				if q == f.from {
					srcIdx = ri
					break
				}
			}
			if srcIdx < 0 {
				return nil, fmt.Errorf("universal: internal replica lookup failure")
			}
			inbox[[3]int{f.neighJ, f.forRepl, f.guest}] = state[f.guest][srcIdx]
		}

		// 5. Compute phase: every replica recomputes its guest locally.
		next := make([][]sim.State, n)
		for j := 0; j < n; j++ {
			next[j] = make([]sim.State, len(reps[j]))
			for ri, q := range reps[j] {
				nbuf = nbuf[:0]
				for _, i := range guest.Neighbors(j) {
					if v, ok := inbox[[3]int{j, ri, i}]; ok {
						nbuf = append(nbuf, v)
					} else {
						localIdx := -1
						for rk, p := range reps[i] {
							if p == q {
								localIdx = rk
								break
							}
						}
						if localIdx < 0 {
							return nil, fmt.Errorf("universal: replica %d of guest %d missing state of %d", ri, j, i)
						}
						nbuf = append(nbuf, state[i][localIdx])
					}
				}
				next[j][ri] = c.Step(j, state[j][ri], nbuf)
			}
		}
		for j := 0; j < n; j++ {
			for ri := 1; ri < len(next[j]); ri++ {
				if next[j][ri] != next[j][0] {
					return nil, fmt.Errorf("universal: replicas of guest %d diverged at step %d", j, t)
				}
			}
		}
		state = next
		rep.ComputeSteps += maxLoad
		hostStepHist.Observe(int64(stepRoute + maxLoad))
		if maxLoad > rep.MaxLoad {
			rep.MaxLoad = maxLoad
		}
		row := make([]sim.State, n)
		for j := 0; j < n; j++ {
			row[j] = state[j][0]
		}
		trace.States[t] = row
	}

	rep.SurvivingHosts = m - len(crashed)
	rep.HostSteps = rep.ComputeSteps + rep.RouteSteps
	if T > 0 {
		rep.Slowdown = float64(rep.HostSteps) / float64(T)
		rep.Inefficiency = rep.Slowdown * float64(m) / float64(n)
	}
	rep.Trace = trace
	if ft.Obs != nil {
		ft.Obs.Counter("universal.ft.runs").Inc()
		ft.Obs.Counter("universal.guest_steps").Add(int64(T))
		ft.Obs.Counter("universal.route_steps").Add(int64(rep.RouteSteps))
		ft.Obs.Counter("universal.compute_steps").Add(int64(rep.ComputeSteps))
		ft.Obs.Gauge("universal.max_load").SetMax(int64(rep.MaxLoad))
		rep.Counters.Record(ft.Obs)
	}
	return rep, nil
}
