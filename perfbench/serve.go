package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"universalnet/internal/embedding"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/routing"
	"universalnet/internal/service"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// serveSize fixes the serve traffic mix: a closed loop of clients over a
// request list of fixed length, of which hotShare repeat a hot set warmed
// during set-up (cache hits) and the rest are fresh keys that never repeat
// (each one computes).
type serveSize struct {
	requests int
	hotKeys  int
	hotShare float64
	clients  int
	// checkSample fresh responses per run are compared with in-process calls
	// on a separate Service.
	checkSample int
	// hitCalls is the number of timed in-process warm-key calls per sweep.
	hitCalls int
}

var defaultServeSize = serveSize{requests: 2000, hotKeys: 64, hotShare: 0.8, clients: 2, checkSample: 16, hitCalls: 2000}

// family is one kind of request: an endpoint and its request for a key
// seed. The fresh keys cycle through all four, so every seed gets the same
// mix of computations.
type family struct {
	path string
	req  func(seed int64) any
}

var families = []family{
	{"/v1/simulate", func(seed int64) any {
		return service.SimulateRequest{Topology: "torus", N: 256, M: 64, Seed: seed}
	}},
	{"/v1/simulate", func(seed int64) any {
		return service.SimulateRequest{Topology: "butterfly", N: 256, M: 4, Seed: seed}
	}},
	{"/v1/route", func(seed int64) any {
		return service.RouteRequest{Topology: "torus", M: 256, Seed: seed}
	}},
	{"/v1/embed", func(seed int64) any {
		return service.EmbedRequest{Topology: "expander", N: 1024, M: 256, Seed: seed}
	}},
}

// request is one entry of the request list.
type request struct {
	fam  int
	seed int64 // key seed
	hot  int   // index into the hot set, or -1 for a fresh key
	body []byte
}

func newRequest(fam int, seed int64, hot int) request {
	body, err := json.Marshal(families[fam].req(seed))
	if err != nil {
		panic(err) // the request types are plain structs
	}
	return request{fam: fam, seed: seed, hot: hot, body: body}
}

// requestList derives the hot set and the request list from seed. The
// composition is the same for every seed: hotShare of the list cycles
// evenly through the hot set, the rest are fresh keys split evenly across
// the families; only the key seeds and the order depend on seed.
func requestList(seed int64, size serveSize) (hot, list []request) {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1 << 40)
	for i := 0; i < size.hotKeys; i++ {
		hot = append(hot, newRequest(i%len(families), base+int64(i), i))
	}
	nFresh := size.requests - int(float64(size.requests)*size.hotShare+0.5)
	for j := 0; j < nFresh; j++ {
		list = append(list, newRequest(j%len(families), base+int64(size.hotKeys+j), -1))
	}
	for i := 0; len(list) < size.requests; i++ {
		list = append(list, hot[i%size.hotKeys])
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return hot, list
}

// normalize strips the "cached" flag from a JSON response body and
// re-encodes it with sorted keys, so a hit compares equal to the computed
// body it came from. Numbers keep their literal digits.
func normalize(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return "", err
	}
	delete(m, "cached")
	out, err := json.Marshal(m)
	return string(out), err
}

type serve struct {
	seed      int64
	size      serveSize
	hot, list []request

	// freshBodies holds the normalized first-run responses of the checked
	// fresh sample, by list index.
	freshBodies map[int]string
	// last is what the most recent measured phase observed.
	last serveObs
	// resolved service worker pool and admission queue sizes.
	workers, queue int
}

// serveObs is what one measured phase saw beyond its timings: the client
// round trip of the hits and the service's own cache counters.
type serveObs struct {
	hitRTT                          []float64
	resultHit, hostHit, scheduleHit float64
}

func newServe(seed int64, size serveSize) *serve {
	s := &serve{seed: seed, size: size, freshBodies: map[int]string{}}
	s.hot, s.list = requestList(seed, size)
	return s
}

// server is the in-process HTTP server wired as `uninet serve` wires it:
// Telemetry outermost around service.Handler, under /v1/ on a mux behind
// the drain gate, with the runtime sampler at its default interval.
type server struct {
	svc      *service.Service
	reg      *obs.Registry
	srv      *http.Server
	url      string
	served   chan error
	stop     chan struct{}
	sampled  chan struct{}
	draining atomic.Bool
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	svc := service.New(service.Config{Obs: reg})
	v1 := service.Telemetry(svc, service.TelemetryOptions{Node: ln.Addr().String()}, service.Handler(svc))
	mux := http.NewServeMux()
	mux.Handle("/v1/", v1)
	s := &server{svc: svc, reg: reg, url: "http://" + ln.Addr().String(), served: make(chan error, 1),
		stop: make(chan struct{}), sampled: make(chan struct{})}
	s.srv = &http.Server{Handler: service.Drain(s.draining.Load, mux)}
	sampler := obs.NewRuntimeSampler(reg)
	go func() {
		defer close(s.sampled)
		sampler.Run(5*time.Second, s.stop)
	}()
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the service and shuts the server down, waiting for every
// goroutine it started.
func (s *server) close() error {
	close(s.stop)
	<-s.sampled
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := s.svc.Close(ctx)
	shutErr := s.srv.Shutdown(ctx)
	<-s.served
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}

// newClient returns one keep-alive HTTP client: a closed-loop client has
// at most one request in flight, so one idle connection is kept.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// reply is one response as the client saw it.
type reply struct {
	status int
	body   []byte
	ms     float64
	err    error
}

func (s *serve) iterate(tr *tracer, parent *span) (iteration, error) {
	t0 := time.Now()
	sp := tr.begin("serve.setup", parent)
	srv, err := startServer()
	if err != nil {
		sp.finish()
		return iteration{}, fmt.Errorf("serve: start server: %w", err)
	}
	// Warm the hot set over HTTP; these computed bodies are what every later
	// hit must match.
	warm := make([]string, len(s.hot))
	wc := newClient()
	warmFailed := 0
	for i, r := range s.hot {
		ws := tr.begin("service.warmup", sp)
		status, body, err := post(wc, srv.url+families[r.fam].path, r.body)
		ws.finish()
		if err == nil && status == http.StatusOK {
			warm[i], err = normalize(body)
		}
		if err != nil || status != http.StatusOK {
			warmFailed++
			fmt.Printf("# serve: warm-up %s failed: status %d err %v\n", r.body, status, err)
		}
	}
	wc.CloseIdleConnections()
	sp.finish()
	setup := time.Since(t0)

	replies := make([]reply, len(s.list))
	clients := make([]*http.Client, s.size.clients)
	for i := range clients {
		clients[i] = newClient()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	ph := beginPhase()
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.list) {
					return
				}
				r := s.list[i]
				rs := tr.begin("http.request", parent)
				start := time.Now()
				status, body, err := post(c, srv.url+families[r.fam].path, r.body)
				replies[i] = reply{status: status, body: body, err: err, ms: float64(time.Since(start)) / 1e6}
				rs.finish()
			}
		}(c)
	}
	wg.Wait()
	cost := ph.end()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	s.last = cacheObs(srv.reg)
	st := srv.svc.Status()
	s.workers, s.queue = st.Workers, st.QueueDepth
	if err := srv.close(); err != nil {
		return iteration{}, fmt.Errorf("serve: shutdown: %w", err)
	}

	it := iteration{setup: setup, cost: cost, ops: float64(len(s.list)), attempted: len(s.list) + len(s.hot), failed: warmFailed}
	it.lat = make([]float64, len(replies))
	for i, rep := range replies {
		it.lat[i] = rep.ms
		r := s.list[i]
		if r.hot >= 0 {
			s.last.hitRTT = append(s.last.hitRTT, rep.ms)
		}
		if !s.checkReply(i, r, rep, warm) {
			it.failed++
		}
	}
	return it, nil
}

// checkReply checks one response: status 200, and a hit's body equal to
// the body computed for its key at warm-up. The first bodies of a sample of
// fresh keys are kept for verify; later runs must reproduce them.
func (s *serve) checkReply(i int, r request, rep reply, warm []string) bool {
	if rep.err != nil || rep.status != http.StatusOK {
		fmt.Printf("# serve: request %d %s: status %d err %v\n", i, r.body, rep.status, rep.err)
		return false
	}
	got, err := normalize(rep.body)
	if err != nil {
		fmt.Printf("# serve: request %d: undecodable body %q: %v\n", i, rep.body, err)
		return false
	}
	if r.hot >= 0 {
		if got != warm[r.hot] {
			fmt.Printf("# serve: hit %d body %s, computed %s\n", i, got, warm[r.hot])
			return false
		}
		return true
	}
	if first, seen := s.freshBodies[i]; seen {
		if got != first {
			fmt.Printf("# serve: fresh request %d body %s, earlier run %s\n", i, got, first)
			return false
		}
	} else if len(s.freshBodies) < s.size.checkSample {
		s.freshBodies[i] = got
	}
	return true
}

func cacheObs(reg *obs.Registry) serveObs {
	ratio := func(name string) float64 {
		h, m := reg.Counter(name+".hits").Value(), reg.Counter(name+".misses").Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	return serveObs{
		resultHit:   ratio("service.cache"),
		hostHit:     ratio("service.hosts"),
		scheduleHit: ratio("routing.cache"),
	}
}

// call makes one in-process service call for r and returns its JSON.
func call(ctx context.Context, svc *service.Service, r request) ([]byte, error) {
	var (
		res any
		err error
	)
	switch req := families[r.fam].req(r.seed).(type) {
	case service.SimulateRequest:
		res, err = svc.Simulate(ctx, req)
	case service.RouteRequest:
		res, err = svc.Route(ctx, req)
	case service.EmbedRequest:
		res, err = svc.Embed(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// verify compares the sampled fresh responses with in-process calls on a
// separate Service that never saw the HTTP traffic.
func (s *serve) verify(tr *tracer) (int, error) {
	svc := service.New(service.Config{})
	// Close under a background context waits for the pool and returns nil.
	defer svc.Close(context.Background())
	failed := 0
	for i, want := range s.freshBodies {
		sp := tr.begin("service.check_call", nil)
		body, err := call(context.Background(), svc, s.list[i])
		sp.finish()
		if err != nil {
			return 0, fmt.Errorf("serve: in-process check of %s: %w", s.list[i].body, err)
		}
		if !sameBody(body, want) {
			failed++
			fmt.Printf("# serve: fresh request %d %s: HTTP %s, in-process %s\n", i, s.list[i].body, want, body)
		}
	}
	return failed, nil
}

// sameBody reports whether body, normalized, equals want.
func sameBody(body []byte, want string) bool {
	got, err := normalize(body)
	return err == nil && got == want
}

func (s *serve) describe() []string {
	hits := 0
	for _, r := range s.list {
		if r.hot >= 0 {
			hits++
		}
	}
	return []string{
		fmt.Sprintf("closed loop, %d keep-alive clients, %d requests per measured phase (%d hot-set hits over %d keys, %d fresh keys)",
			s.size.clients, len(s.list), hits, len(s.hot), len(s.list)-hits),
		fmt.Sprintf("resolved service workers=%d queue=%d (program defaults, not overridden); no streaming run, so build/validate shards n/a", s.workers, s.queue),
		fmt.Sprintf("fresh responses checked against a separate in-process Service: %d", len(s.freshBodies)),
	}
}

// layers times the service and the layers under it with direct calls: warm
// in-process hits, fresh in-process misses on a new Service, and public
// calls into topology, universal, routing and embedding that replay the
// fresh requests. The HTTP hit round trip and the cache ratios come from
// the most recent measured phase.
func (s *serve) layers(tr *tracer) ([]metric, error) {
	ctx := context.Background()
	var fresh []request
	for _, r := range s.list {
		if r.hot < 0 {
			fresh = append(fresh, r)
		}
	}

	svc := service.New(service.Config{Obs: obs.New()})
	defer svc.Close(ctx) // a background context: waits, returns nil
	for _, r := range s.hot {
		if _, err := call(ctx, svc, r); err != nil {
			return nil, fmt.Errorf("warm %s: %w", r.body, err)
		}
	}
	hitUS := make([]float64, 0, s.size.hitCalls)
	for i := 0; i < s.size.hitCalls; i++ {
		r := s.hot[i%len(s.hot)]
		sp := tr.begin("service.hit_call", nil)
		start := time.Now()
		_, err := call(ctx, svc, r)
		hitUS = append(hitUS, float64(time.Since(start))/1e3)
		sp.finish()
		if err != nil {
			return nil, err
		}
	}

	missSvc := service.New(service.Config{Obs: obs.New()})
	defer missSvc.Close(ctx) // a background context: waits, returns nil
	missMS := make([]float64, 0, len(fresh))
	for _, r := range fresh {
		sp := tr.begin("service.miss_call", nil)
		start := time.Now()
		_, err := call(ctx, missSvc, r)
		missMS = append(missMS, float64(time.Since(start))/1e6)
		sp.finish()
		if err != nil {
			return nil, err
		}
	}

	rp, err := replay(tr, fresh)
	if err != nil {
		return nil, err
	}

	missP99 := tailMetric("service.miss_call_p99_ms", missMS, 0.99)
	last := s.last
	return []metric{
		{name: "http.hit_rtt_ms", value: median(last.hitRTT), unit: "ms", samples: len(last.hitRTT), note: "client p50"},
		{name: "service.hit_call_us", value: median(hitUS), unit: "us", samples: len(hitUS)},
		{name: "service.miss_call_p50_ms", value: median(missMS), unit: "ms", samples: len(missMS)},
		missP99,
		{name: "topology.random_guest_ms", value: median(rp.guest), unit: "ms", samples: len(rp.guest)},
		{name: "universal.host_build_ms", value: median(rp.host), unit: "ms", samples: len(rp.host)},
		{name: "universal.simulate_ms", value: median(rp.simulate), unit: "ms", samples: len(rp.simulate)},
		{name: "routing.route_ms", value: median(rp.route), unit: "ms", samples: len(rp.route)},
		{name: "embedding.embed_ms", value: median(rp.embed), unit: "ms", samples: len(rp.embed)},
		{name: "cache.result_hit_ratio", value: last.resultHit, unit: "ratio", count: true},
		{name: "cache.host_hit_ratio", value: last.hostHit, unit: "ratio", count: true},
		{name: "routing.schedule_hit_ratio", value: last.scheduleHit, unit: "ratio", count: true},
	}, nil
}

// replayTimes holds per-call times, ms, of the direct layer calls.
type replayTimes struct {
	guest, host, simulate, route, embed []float64
}

// replay recomputes each fresh request through the layers' public
// functions, as the service's compute path does: guest generation, host
// construction, then simulation (with a private schedule cache, as each
// service request shares one across its steps), routing, or embedding.
func replay(tr *tracer, fresh []request) (*replayTimes, error) {
	rt := &replayTimes{}
	timed := func(dst *[]float64, name string, fn func() error) error {
		sp := tr.begin(name, nil)
		start := time.Now()
		err := fn()
		*dst = append(*dst, float64(time.Since(start))/1e6)
		sp.finish()
		return err
	}
	for _, r := range fresh {
		var host *universal.Host
		var g *graph.Graph
		var rng *rand.Rand
		newGuest := func(n, deg int) error {
			return timed(&rt.guest, "topology.random_guest", func() (err error) {
				rng = rand.New(rand.NewSource(r.seed))
				g, err = topology.RandomGuest(rng, n, deg)
				return err
			})
		}
		newHost := func(build func() (*universal.Host, error)) error {
			return timed(&rt.host, "universal.host_build", func() (err error) {
				host, err = build()
				return err
			})
		}
		var err error
		switch req := families[r.fam].req(r.seed).(type) {
		case service.SimulateRequest:
			build := func() (*universal.Host, error) { return universal.TorusHost(req.M) }
			if req.Topology == "butterfly" {
				build = func() (*universal.Host, error) { return universal.ButterflyHost(req.M) }
			}
			if err = newHost(build); err == nil {
				err = newGuest(req.N, 4)
			}
			if err == nil {
				err = timed(&rt.simulate, "universal.simulate", func() error {
					es := &universal.EmbeddingSimulator{Host: host, Schedules: routing.NewScheduleCache(32<<20, nil)}
					_, err := es.Run(sim.MixMod(g, rng), 8)
					return err
				})
			}
		case service.RouteRequest:
			if err = newHost(func() (*universal.Host, error) { return universal.TorusHost(req.M) }); err == nil {
				err = timed(&rt.route, "routing.route", func() error {
					p := routing.RandomPermutation(rand.New(rand.NewSource(r.seed)), host.Graph.N())
					_, err := host.Router.Route(host.Graph, p)
					return err
				})
			}
		case service.EmbedRequest:
			if err = newHost(func() (*universal.Host, error) { return universal.ExpanderHost(req.M, 4, r.seed) }); err == nil {
				err = newGuest(req.N, 4)
			}
			if err == nil {
				err = timed(&rt.embed, "embedding.embed", func() error {
					m := host.Graph.N()
					f := make([]int, g.N())
					for i := range f {
						f[i] = i % m
					}
					e, err := embedding.New(g, host.Graph, f)
					if err != nil {
						return err
					}
					_ = e.Load() + e.Dilation() + e.Congestion() + e.SlowdownLowerBound()
					return nil
				})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.body, err)
		}
	}
	return rt, nil
}
