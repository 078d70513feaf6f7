package universalnet

// The benchmark harness regenerates every experiment of EXPERIMENTS.md.
// Each benchmark runs one experiment end to end and reports its headline
// quantities via b.ReportMetric, so `go test -bench=. -benchmem` reproduces
// the full evaluation. Run with -v to get the formatted tables on stdout
// (printed once per benchmark).
//
// Experiment ↔ paper map:
//   BenchmarkUpperBoundButterfly   — E1, Theorem 2.1 / §2
//   BenchmarkLowerBoundCurve       — E2, Theorem 3.1
//   BenchmarkDependencyTree        — E3, Figure 1 / Lemma 3.10
//   BenchmarkFragmentWeights       — E4, Lemma 3.12
//   BenchmarkExpansionFrontier     — E5, Lemma 3.15 / Prop. 3.17
//   BenchmarkTreeCachedHost        — E6, §1 remark (2^{O(t)}·n host)
//   BenchmarkSizeSlowdownTradeoff  — E7, §1 upper trade-off
//   BenchmarkOfflineRouting        — E8, §2 routing substrate
//   BenchmarkFragmentMultiplicity  — E9, Lemma 3.3
//   BenchmarkG0Expansion           — E10, Definition 3.9
//   BenchmarkStaticEmbeddings      — E11, §1 embeddings contrast
//   BenchmarkRouterAblation        — E12, router ablation
//   BenchmarkAssignmentAblation    — E13, placement ablation
//   BenchmarkObliviousComplete     — E14, §2 complete-network simulation
//   BenchmarkBuilderAblation       — E15, protocol-builder ablation
//   BenchmarkRedundancy            — E16, §1 dynamic embeddings (m vs n)
//   BenchmarkBaselineBounds        — E17, §1 previous-work baselines
//   BenchmarkOfflineTheorem21      — E18, Thm 2.1's offline construction
//   BenchmarkRouteScaling          — E19, §2 route_G(h)
//   BenchmarkMultibutterflyAsymmetry — E20, [17] separation
//   BenchmarkMinimizerAblation     — E21, protocol minimization
//   BenchmarkSpreadingProfiles     — E22, [15] spreading classification

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"universalnet/internal/experiments"
	"universalnet/internal/service"
	"universalnet/internal/topology"
)

var printOnce sync.Map

// printTable emits a table once per benchmark name (benchmarks rerun their
// body many times; the table is identical each time).
func printTable(name string, tab fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", tab)
	}
}

func BenchmarkUpperBoundButterfly(b *testing.B) {
	const n, deg, T = 512, 4, 3
	dims := []int{3, 4, 5, 6}
	var last []experiments.E1Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E1UpperBound(context.Background(), n, deg, T, dims, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E1", experiments.E1Table(n, last))
	var ratios []float64
	for _, r := range last {
		ratios = append(ratios, r.Ratio)
	}
	b.ReportMetric(experiments.GeomMean(ratios), "s/((n/m)logm)")
	b.ReportMetric(last[0].MeasuredS, "slowdown@m="+fmt.Sprint(last[0].M))
}

func BenchmarkLowerBoundCurve(b *testing.B) {
	log2ms := []float64{10, 16, 24, 32, 48, 64, 1e6, 2e6, 4e6}
	var last []experiments.E2Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E2LowerBoundCurve(log2ms)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E2", experiments.E2Table(last))
	b.ReportMetric(last[len(last)-1].PaperK, "k@log2m=4e6")
	b.ReportMetric(last[4].ToyK, "toyk@log2m=48")
}

func BenchmarkDependencyTree(b *testing.B) {
	sides := []int{4, 6, 8}
	var last []experiments.E3Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E3DependencyTrees(sides, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E3", experiments.E3Table(last))
	worstSize, worstDepth := 0.0, 0.0
	for _, r := range last {
		if r.SizePerA2 > worstSize {
			worstSize = r.SizePerA2
		}
		if r.DepthPerA > worstDepth {
			worstDepth = r.DepthPerA
		}
	}
	b.ReportMetric(worstSize, "size/a^2")
	b.ReportMetric(worstDepth, "depth/a")
}

func BenchmarkFragmentWeights(b *testing.B) {
	var last *experiments.E4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4CriticalTimes(64, 4, 3, 16, 24, 11)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ineq1Violated || res.Ineq2Violated {
			b.Fatal("Lemma 3.12 inequalities violated")
		}
		last = res
	}
	b.ReportMetric(float64(last.ZSize), "|Z_S|")
	b.ReportMetric(float64(last.ZLowerBound), "(T-D)/2")
	b.ReportMetric(last.K, "inefficiency_k")
}

func BenchmarkExpansionFrontier(b *testing.B) {
	var last *experiments.E5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5Frontier(64, 4, 3, 8, 0.4, 13)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.MinGap), "min_gap_steps")
	b.ReportMetric(last.BetaSampled, "beta_sampled")
	b.ReportMetric(float64(last.FrontierCap), "max_e_tj")
}

func BenchmarkTreeCachedHost(b *testing.B) {
	depths := []int{2, 3, 4, 5}
	var last []experiments.E6Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E6TreeCache(8, 2, depths, 17)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E6", experiments.E6Table(last))
	b.ReportMetric(last[len(last)-1].Slowdown, "slowdown")
	b.ReportMetric(last[len(last)-1].SizeFactor, "m/n@t=5")
}

func BenchmarkSizeSlowdownTradeoff(b *testing.B) {
	var last []experiments.E7Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E7Tradeoff(context.Background(), 24, 3, 3, 3, 6, 19)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E7", experiments.E7Table(last))
	for _, r := range last {
		if r.Kind == "embedding (ℓ≈1)" {
			b.ReportMetric(r.Slowdown, "s_embed")
		}
		if r.Kind == "tree-cache (ℓ=2^{O(t)})" {
			b.ReportMetric(r.Slowdown, "s_treecache")
		}
	}
}

func BenchmarkOfflineRouting(b *testing.B) {
	dims := []int{3, 4, 5, 6, 7}
	var last []experiments.E8Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E8OfflineRouting(context.Background(), dims, 3, 23)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E8", experiments.E8Table(last))
	b.ReportMetric(last[len(last)-1].PerLogM, "offline/log2m")
	b.ReportMetric(float64(last[len(last)-1].OnlineSteps), "online_steps@d=7")
}

func BenchmarkFragmentMultiplicity(b *testing.B) {
	var last *experiments.E9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9FragmentMultiplicity(context.Background(), 64, 4, 3, 16, 6, 2, 29)
		if err != nil {
			b.Fatal(err)
		}
		if !res.EdgeInclOK {
			b.Fatal("Lemma 3.3 edge inclusion violated")
		}
		last = res
	}
	b.ReportMetric(last.Log2XBound, "log2_X_bound")
	b.ReportMetric(float64(last.MaxD), "max|D_i|")
}

func BenchmarkG0Expansion(b *testing.B) {
	sides := []int{4, 6, 8}
	var last []experiments.E10Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E10G0Expansion(context.Background(), sides, 0.25, 31)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E10", experiments.E10Table(last))
	b.ReportMetric(last[len(last)-1].Lambda2, "lambda2")
	b.ReportMetric(last[len(last)-1].BetaTanner, "beta_tanner")
}

func BenchmarkStaticEmbeddings(b *testing.B) {
	var last []experiments.E11Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E11Embeddings(context.Background(), 64, 4, 41)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E11", experiments.E11Table(last))
	for _, r := range last {
		if r.Guest == "mesh" && r.Strategy == "greedy" {
			b.ReportMetric(float64(r.Dilation), "mesh_greedy_dilation")
		}
		if r.Guest == "random-4-regular" && r.Strategy == "greedy" {
			b.ReportMetric(float64(r.Dilation), "random_greedy_dilation")
		}
	}
}

func BenchmarkRouterAblation(b *testing.B) {
	var last []experiments.E12Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E12RouterAblation(context.Background(), 128, 4, 3, 43)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E12", experiments.E12Table(last))
	for _, r := range last {
		if r.Router == "greedy(min-index)" {
			b.ReportMetric(r.Slowdown, "s_greedy")
		}
		if r.Router == "greedy(single-port)" {
			b.ReportMetric(r.Slowdown, "s_singleport")
		}
	}
}

func BenchmarkAssignmentAblation(b *testing.B) {
	var last []experiments.E13Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E13AssignmentAblation(context.Background(), 64, 3, 47)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E13", experiments.E13Table(last))
	for _, r := range last {
		if r.Guest == "torus" && r.Assignment == "greedy-locality" {
			b.ReportMetric(r.Slowdown, "s_torus_locality")
		}
		if r.Guest == "random-4-regular" && r.Assignment == "balanced (i mod m)" {
			b.ReportMetric(r.Slowdown, "s_random_balanced")
		}
	}
}

func BenchmarkObliviousComplete(b *testing.B) {
	var last []experiments.E14Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E14ObliviousComplete(256, 3, []int{3, 4, 5}, 53)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E14", experiments.E14Table(256, last))
	var ratios []float64
	for _, r := range last {
		ratios = append(ratios, r.Ratio)
	}
	b.ReportMetric(experiments.GeomMean(ratios), "s/((n/m)logm)")
}

func BenchmarkBuilderAblation(b *testing.B) {
	var last []experiments.E15Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E15BuilderAblation(context.Background(), 59)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E15", experiments.E15Table(last))
	var ratios, mratios []float64
	for _, r := range last {
		ratios = append(ratios, r.Ratio)
		mratios = append(mratios, r.MultiRatio)
	}
	b.ReportMetric(experiments.GeomMean(ratios), "pipelined/phased")
	b.ReportMetric(experiments.GeomMean(mratios), "multicast/phased")
}

func BenchmarkRedundancy(b *testing.B) {
	var last []experiments.E16Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E16Redundancy(48, 3, 61)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E16", experiments.E16Table(last))
	for _, r := range last {
		if r.Regime == "m>n" && r.R == 1 {
			b.ReportMetric(r.AvgFetchDist, "fetchdist_r1")
		}
		if r.Regime == "m>n" && r.R == 16 {
			b.ReportMetric(r.AvgFetchDist, "fetchdist_r16")
		}
	}
}

func BenchmarkBaselineBounds(b *testing.B) {
	var last []experiments.E17Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E17Baselines(context.Background(), 256, 3, 67)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E17", experiments.E17Table(256, last))
	for _, r := range last {
		if r.M == 64 && strings.HasPrefix(r.Host, "torus") {
			b.ReportMetric(r.BisectSEst, "bisectS_torus")
		}
		if strings.HasPrefix(r.Host, "expander") {
			b.ReportMetric(r.BisectSEst, "bisectS_expander")
		}
	}
}

func BenchmarkOfflineTheorem21(b *testing.B) {
	var last []experiments.E18Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E18OfflineTheorem21(context.Background(), 128, 3, []int{3, 4, 5}, 71)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E18", experiments.E18Table(128, last))
	for _, r := range last {
		if r.D == 4 {
			b.ReportMetric(r.OfflineS, "s_offline@d=4")
			b.ReportMetric(r.OnlineS, "s_online@d=4")
		}
	}
}

func BenchmarkRouteScaling(b *testing.B) {
	var last []experiments.E19Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E19RouteScaling(context.Background(), []int{1, 2, 4}, 2, 73)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E19", experiments.E19Table(last))
	for _, r := range last {
		if r.H == 4 && r.Topology == "butterfly" {
			b.ReportMetric(float64(r.Steps), "route_bf(4)")
		}
		if r.H == 4 && r.Topology == "ring" {
			b.ReportMetric(float64(r.Steps), "route_ring(4)")
		}
	}
}

func BenchmarkMultibutterflyAsymmetry(b *testing.B) {
	var last []experiments.E20Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E20Multibutterfly(context.Background(), 4, 3, 79)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E20", experiments.E20Table(last))
	for _, r := range last {
		if r.Guest == "multibutterfly" && r.HostName == "butterfly" {
			b.ReportMetric(r.Slowdown, "s_mb_on_bf")
		}
		if r.Guest == "butterfly" && r.HostName == "multibutterfly" {
			b.ReportMetric(r.Slowdown, "s_bf_on_mb")
		}
	}
}

func BenchmarkMinimizerAblation(b *testing.B) {
	var last []experiments.E21Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E21MinimizerAblation(context.Background(), 83)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E21", experiments.E21Table(last))
	for _, r := range last {
		if r.Builder == "phase-based" {
			b.ReportMetric(r.KBefore-r.KAfter, "k_saved_phase")
		}
	}
}

func BenchmarkSpreadingProfiles(b *testing.B) {
	var last []experiments.E22Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E22Spreading(context.Background(), 6, 89)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	printTable("E22", experiments.E22Table(last))
	for _, r := range last {
		if r.Topology == "torus" {
			b.ReportMetric(r.Exponent, "torus_exponent")
		}
		if r.Topology == "expander" {
			b.ReportMetric(r.Exponent, "expander_exponent")
		}
	}
}

// BenchmarkRunnerParallel runs the full registered suite through the
// experiment runner at workers=1 and workers=GOMAXPROCS — the headline
// speedup of the parallel execution layer.
func BenchmarkRunnerParallel(b *testing.B) {
	cfg := experiments.Config{Seed: 1}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", 0}, // 0 ⇒ GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &experiments.Runner{Workers: bc.workers, FailFast: true}
				if _, err := r.Run(context.Background(), experiments.Registry(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot substrate operations ---

func BenchmarkRandomRegularGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := topology.RandomRegular(rng, 256, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbeddingProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 128, 4)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := BuildEmbeddingProtocol(guest, host, nil, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDependencyTreeConstruction(b *testing.B) {
	g0, err := topology.BuildG0WithBlockSide(256, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	depth := TreeDepth(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDependencyTree(g0, i%256, depth); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBenesRouting(b *testing.B) {
	perm := rand.New(rand.NewSource(4)).Perm(1 << 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OfflinePermutationSteps(8, perm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBenesProtocol(b *testing.B) {
	bh, err := NewBenesHost(4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	guest, err := RandomGuest(rng, 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := BuildBenesProtocol(guest, bh, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinedProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	guest, err := RandomGuest(rng, 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	host, err := WrappedButterfly(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := BuildPipelinedProtocol(guest, host, nil, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit quantifies the service's caching story: the
// same simulation request answered cold (every iteration a fresh seed, so
// every iteration computes) versus warm (one seed, primed once, so every
// iteration is a result-cache hit). The warm path is the steady state of a
// serve deployment — the schedule and result are "known in advance" (§2)
// after the first request.
func BenchmarkServiceCacheHit(b *testing.B) {
	newSvc := func(b *testing.B) *service.Service {
		s := service.New(service.Config{Workers: 2, QueueDepth: 64, CacheBudget: 64 << 20})
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				b.Error(err)
			}
		})
		return s
	}
	req := service.SimulateRequest{Topology: "torus", N: 64, M: 16, Seed: 1, Steps: 4}
	b.Run("cold", func(b *testing.B) {
		s := newSvc(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := req
			r.Seed = int64(i) + 1 // fresh key: forces a computation
			if _, err := s.Simulate(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := newSvc(b)
		if _, err := s.Simulate(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Simulate(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}

// BenchmarkStreamingPipeline runs the streaming data path end to end —
// queued builder → bounded pipe → sharded validator, with the step stream
// teed into a chunked archive — at a size where the materialized and
// streaming paths can still be cross-checked (E24's small-n regime).
func BenchmarkStreamingPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	guest, err := topology.RandomGuest(rng, 2048, 3)
	if err != nil {
		b.Fatal(err)
	}
	host, err := topology.WrappedButterfly(4)
	if err != nil {
		b.Fatal(err)
	}
	var last *StreamRunReport
	for i := 0; i < b.N; i++ {
		chunks := NewChunkedLog(ChunkedLogOptions{TargetChunkBytes: 64 << 10, MemBudgetBytes: 128 << 10})
		rep, err := RunStreamingEmbedding(guest, host, nil, 2, StreamRunConfig{
			Shards: 2, Window: 8, Chunks: chunks,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := chunks.Close(); err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(last.Slowdown, "slowdown")
	b.ReportMetric(float64(last.PeakChunkBytes), "peak-chunk-bytes")
}
