// Package hybrimoe_test is the benchmark harness regenerating every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`). Each BenchmarkFig*/BenchmarkTable*
// drives the corresponding internal/exp experiment at reduced scale and
// reports the headline quantity (speedup, hit-rate delta, ...) as a
// custom benchmark metric, so `go test -bench` output doubles as a
// results summary. Microbenchmarks of the core data structures and
// kernels follow.
package hybrimoe_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/quant"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/sim"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// Benchmarks must be bit-for-bit deterministic: CI's bench-trend gate
// diffs BENCH_<sha>.json across commits, so every workload stream and
// trace generator is pinned to a fixed seed — never the clock or b.N.
const (
	// benchTraceSeed seeds engine trace generators in microbenchmarks.
	benchTraceSeed uint64 = 1
	// benchWorkloadSeed seeds the serving benchmarks' request streams.
	benchWorkloadSeed uint64 = 9
	// benchFleetSeed seeds the multi-replica fleet benchmark: the base
	// seed derives every replica's engine stream, so the whole fleet is
	// pinned by this one constant.
	benchFleetSeed uint64 = 17
)

func benchParams() exp.Params {
	p := exp.QuickParams() // fixed experiment seed (2025)
	p.DecodeSteps = 10
	p.CDFIters = 100
	p.HitRateIters = 60
	return p
}

// --- Paper figures and tables ---------------------------------------

func BenchmarkFig3aActivationCDF(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		exp.Fig3a(p).Render(io.Discard)
	}
}

func BenchmarkFig3bReuseProbability(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		exp.Fig3b(p).Render(io.Discard)
	}
}

func BenchmarkFig3cPrefillWorkload(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		exp.Fig3c(p).Render(io.Discard)
	}
}

func BenchmarkFig3dBaselines(b *testing.B) {
	p := benchParams()
	p.DecodeSteps = 5
	for i := 0; i < b.N; i++ {
		exp.Fig3d(p).Render(io.Discard)
	}
}

func BenchmarkFig3eDeviceScalingExperts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig3e().Render(io.Discard)
	}
}

func BenchmarkFig3fDeviceScalingWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig3f().Render(io.Discard)
	}
}

// BenchmarkFig7Prefill reproduces one cell of the Figure 7 grid per
// framework (DeepSeek, 128 tokens, 25% cache) and reports the speedup
// over kTransformers.
func BenchmarkFig7Prefill(b *testing.B) {
	var kt, hy float64
	for i := 0; i < b.N; i++ {
		kt = runPrefill(b, engine.KTransformersFramework(), 128)
		hy = runPrefill(b, engine.HybriMoEFramework(), 128)
	}
	if hy > 0 {
		b.ReportMetric(kt/hy, "speedup-vs-ktrans")
	}
}

// BenchmarkFig8Decode reproduces one cell of the Figure 8 grid per
// framework (DeepSeek, 25% cache) and reports the decode speedup.
func BenchmarkFig8Decode(b *testing.B) {
	var kt, hy float64
	for i := 0; i < b.N; i++ {
		kt = runDecode(b, engine.KTransformersFramework(), 10)
		hy = runDecode(b, engine.HybriMoEFramework(), 10)
	}
	if hy > 0 {
		b.ReportMetric(kt/hy, "speedup-vs-ktrans")
	}
}

func runPrefill(b *testing.B, fw engine.Framework, tokens int) float64 {
	b.Helper()
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), fw, engine.WithCacheRatio(0.25), engine.WithSeed(benchTraceSeed))
	if err != nil {
		b.Fatal(err)
	}
	ttft, _, _ := serveAlone(e, workload.Request{PromptTokens: tokens})
	return ttft
}

func runDecode(b *testing.B, fw engine.Framework, steps int) float64 {
	b.Helper()
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), fw, engine.WithCacheRatio(0.25), engine.WithSeed(benchTraceSeed))
	if err != nil {
		b.Fatal(err)
	}
	sum, n, _ := serveAlone(e, workload.Request{DecodeTokens: steps})
	return sum / float64(n)
}

// serveAlone serves req alone on a fresh Session of e and returns the
// step latencies summed in event order, the step count, and the
// session's metrics once drained.
func serveAlone(e *engine.Engine, req workload.Request) (sum float64, steps int, m engine.Metrics) {
	s := e.NewSession()
	s.Submit(req)
	steps = s.Run(func(ev engine.StepEvent) { sum += ev.Latency })
	return sum, steps, s.Metrics()
}

// BenchmarkFig9CacheHitRate reproduces one Figure 9 point (DeepSeek,
// 30% capacity) and reports the MRS-over-LRU hit-rate gain.
func BenchmarkFig9CacheHitRate(b *testing.B) {
	cfg := moe.DeepSeek()
	opts := trace.DefaultOptions(5)
	var delta float64
	for i := 0; i < b.N; i++ {
		lru := exp.CacheHitRate(cfg, cache.NewLRU(), 0.30, 100, opts)
		mrs := exp.CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), 0.30, 100, opts)
		delta = mrs - lru
	}
	b.ReportMetric(delta, "hit-rate-gain")
}

func BenchmarkTable3Ablation(b *testing.B) {
	p := benchParams()
	p.DecodeSteps = 5
	for i := 0; i < b.N; i++ {
		exp.Table3(p).Render(io.Discard)
	}
}

// --- Design-choice ablations: greedy vs optimal scheduling, MRS top-p
// width, prefetch window and policy, CPU warm-up modelling ------------

func BenchmarkSchedulerGreedyVsExhaustive(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mean, _ = exp.AblationGreedyVsExhaustive(50, 7)
	}
	b.ReportMetric(mean, "greedy/optimal")
}

func BenchmarkAblationMRSTopP(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		exp.AblationMRSTopP(p).Render(io.Discard)
	}
}

func BenchmarkAblationLookahead(b *testing.B) {
	p := benchParams()
	p.DecodeSteps = 5
	for i := 0; i < b.N; i++ {
		exp.AblationLookahead(p).Render(io.Discard)
	}
}

func BenchmarkAblationPrefetchPolicy(b *testing.B) {
	p := benchParams()
	p.DecodeSteps = 5
	for i := 0; i < b.N; i++ {
		exp.AblationPrefetchPolicy(p).Render(io.Discard)
	}
}

func BenchmarkAblationCPUWarmup(b *testing.B) {
	p := benchParams()
	p.DecodeSteps = 5
	for i := 0; i < b.N; i++ {
		exp.AblationCPUWarmup(p).Render(io.Discard)
	}
}

// --- Core data-structure and kernel microbenchmarks ------------------

// BenchmarkSchedulerPlanDecode times one layer-scheduling decision at
// decode shape (6 unit-load tasks, half cached) — the per-layer cost
// HybriMoE adds to the serving path.
func BenchmarkSchedulerPlanDecode(b *testing.B) {
	cfg := moe.DeepSeek()
	p := hw.A6000Platform()
	s := sched.NewHybriMoE()
	var tasks []sched.Task
	for e := 0; e < 6; e++ {
		tasks = append(tasks, sched.Task{
			ID: moe.ExpertID{Layer: 0, Index: e}, Load: 1,
			Flops: cfg.ExpertFlops(1), Bytes: cfg.ExpertBytes(), Cached: e%2 == 0,
		})
	}
	// One warm-up call grows the scheduler's plan and scratch, so even a
	// single timed iteration reports the steady state.
	s.Plan(tasks, p, sched.Resources{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(tasks, p, sched.Resources{})
	}
}

// BenchmarkSchedulerPlanPrefill times scheduling a full prefill layer
// (64 active experts with mixed loads).
func BenchmarkSchedulerPlanPrefill(b *testing.B) {
	cfg := moe.Qwen2()
	p := hw.A6000Platform()
	s := sched.NewHybriMoE()
	rng := stats.NewRNG(3)
	var tasks []sched.Task
	for e := 0; e < 64; e++ {
		load := 1 + rng.Intn(30)
		tasks = append(tasks, sched.Task{
			ID: moe.ExpertID{Layer: 0, Index: e}, Load: load,
			Flops: cfg.ExpertFlops(load), Bytes: cfg.ExpertBytes(), Cached: rng.Float64() < 0.25,
		})
	}
	s.Plan(tasks, p, sched.Resources{}) // warm-up, as in BenchmarkSchedulerPlanDecode
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(tasks, p, sched.Resources{})
	}
}

func BenchmarkMRSObserveScores(b *testing.B) {
	p := cache.NewMRS(cache.DefaultAlpha, 12)
	g := trace.New(moe.DeepSeek(), trace.DefaultOptions(4))
	g.Advance()
	scores := g.Scores(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveScores(i%26, scores)
	}
}

// BenchmarkMRSObserveScoresDecode times ObserveScores on the rows the
// engine feeds it: 8 recorded DeepSeek decode steps, cycled over all 26
// layers. BenchmarkMRSObserveScores repeats one row, so the branch
// predictor learns its top-p selection.
func BenchmarkMRSObserveScoresDecode(b *testing.B) {
	cfg := moe.DeepSeek()
	p := cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts)
	g := trace.New(cfg, trace.DefaultOptions(4))
	var acts []trace.LayerActivation
	for s := 0; s < 8; s++ {
		acts = append(acts, trace.DecodeStepInto(nil, g)...)
	}
	for _, a := range acts {
		p.ObserveScores(a.Layer, a.Scores)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &acts[i%len(acts)]
		p.ObserveScores(a.Layer, a.Scores)
	}
}

// BenchmarkCacheInsertEvict times two inserts into a full LRU cache,
// each evicting. The warm-up fills the cache along the id sequence the
// timed loop continues, plus one evicting pair to grow the eviction
// buffer, so a single iteration measures victim scans, not growth.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := cache.New(256, cache.NewLRU())
	insertPair := func(i int) {
		c.Insert(moe.ExpertID{Layer: i % 26, Index: i % 64}, cache.Guard{})
		c.Insert(moe.ExpertID{Layer: (i + 13) % 26, Index: (i + 31) % 64}, cache.Guard{})
	}
	start := 0
	for ; c.Len() < c.Capacity(); start++ {
		insertPair(start)
	}
	insertPair(start)
	start++
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertPair(start + i)
	}
}

// cacheLayerReplay is the cache's share of a decode step: a full cache
// at DeepSeek's 25% capacity (416 experts) replaying decode layers whose
// routing is drawn up front, as Engine.applyPlan and the score update
// after it drive the cache.
type cacheLayerReplay struct {
	cache *cache.Multi
	acts  []trace.LayerActivation
	// cur is the layer being replayed and missed its experts that were
	// not resident.
	cur    trace.LayerActivation
	missed []moe.ExpertID
}

func newCacheLayerReplay(policy cache.Policy, steps int) *cacheLayerReplay {
	cfg := moe.DeepSeek()
	g := trace.New(cfg, trace.DefaultOptions(benchTraceSeed))
	r := &cacheLayerReplay{
		cache:  cache.NewMulti(cache.New(cfg.CacheCapacity(0.25), policy)),
		missed: make([]moe.ExpertID, 0, cfg.RoutedExperts),
	}
	for s := 0; s < steps; s++ {
		r.acts = append(r.acts, trace.DecodeStepInto(nil, g)...)
	}
	all := make([]moe.ExpertID, 0, cfg.TotalRoutedExperts())
	for l := 0; l < cfg.Layers; l++ {
		for x := 0; x < cfg.RoutedExperts; x++ {
			all = append(all, moe.ExpertID{Layer: l, Index: x})
		}
	}
	r.cache.Warm(all)
	return r
}

// layer replays activation i, wrapping around: it inserts the layer's
// missed experts one at a time under the layer's guard, then observes
// the layer's scores.
func (r *cacheLayerReplay) layer(i int) {
	r.cur = r.acts[i%len(r.acts)]
	r.missed = r.missed[:0]
	for x, load := range r.cur.Loads {
		if id := (moe.ExpertID{Layer: r.cur.Layer, Index: x}); load > 0 && !r.cache.Contains(id) {
			r.missed = append(r.missed, id)
		}
	}
	guard := cache.Guard{Layer: r.cur.Layer, Loads: r.cur.Loads}
	for _, id := range r.missed {
		r.cache.Insert(id, 0, guard)
	}
	r.cache.ObserveScores(r.cur.Layer, r.cur.Scores)
}

// BenchmarkCacheInsertAllLayer times one layer of cacheLayerReplay under
// MRS over eight decode steps. The warm-up replays four of them so the
// timed layers evict from a settled cache.
func BenchmarkCacheInsertAllLayer(b *testing.B) {
	cfg := moe.DeepSeek()
	r := newCacheLayerReplay(cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), 8)
	warm := 4 * cfg.Layers
	for i := 0; i < warm; i++ {
		r.layer(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.layer(warm + i)
	}
}

// victimCounter counts the candidates offered to a policy's Victim.
type victimCounter struct {
	cache.Policy
	candidates int64
}

func (p *victimCounter) Victim(cs []moe.ExpertID) moe.ExpertID {
	p.candidates += int64(len(cs))
	return p.Policy.Victim(cs)
}

// TestVictimScanIsPerLayer pins the shape of the victim search on
// BenchmarkCacheInsertAllLayer's workload: after four warm decode
// steps, the candidates offered to Victim over the next twenty total at
// most a quarter of what scanning every evictable resident on each
// eviction offers. Every insert here evicts exactly one expert, and
// such a scan offers every resident except the layer's protected ones:
// its routed experts that hit, and the misses inserted before.
func TestVictimScanIsPerLayer(t *testing.T) {
	cfg := moe.DeepSeek()
	const warmSteps, steps = 4, 20
	counter := &victimCounter{Policy: cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts)}
	r := newCacheLayerReplay(counter, warmSteps+steps)
	warm := warmSteps * cfg.Layers
	for i := 0; i < warm; i++ {
		r.layer(i)
	}
	counter.candidates = 0
	capacity := int64(r.cache.Capacity())
	var fullScan int64
	for i := warm; i < warm+steps*cfg.Layers; i++ {
		r.layer(i)
		var hits int64
		for _, load := range r.cur.Loads {
			if load > 0 {
				hits++
			}
		}
		hits -= int64(len(r.missed))
		for j := range r.missed {
			fullScan += capacity - hits - int64(j)
		}
	}
	if fullScan == 0 {
		t.Fatal("the replay never evicted")
	}
	share := float64(counter.candidates) / float64(fullScan)
	t.Logf("Victim was offered %d candidates, %.1f%% of a full scan's %d", counter.candidates, 100*share, fullScan)
	if share > 0.25 {
		t.Fatalf("the victim search offered %.1f%% of a full scan's candidates; want at most 25%%", 100*share)
	}
}

func BenchmarkTraceAdvance(b *testing.B) {
	g := trace.New(moe.DeepSeek(), trace.DefaultOptions(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Advance()
	}
}

// BenchmarkTracePrefillLoads times one layer of the prefill routing
// draw, each prompt token's top-k over the layer's experts, per model
// at the token counts of a short chat turn (6), the median Vicuna
// prompt (35) and two long prompts. Calls cycle through the layers, so
// every layer's latent state is visited.
func BenchmarkTracePrefillLoads(b *testing.B) {
	for _, cfg := range []*moe.Config{moe.DeepSeek(), moe.Qwen2(), moe.Mixtral()} {
		for _, tokens := range []int{6, 35, 128, 512} {
			b.Run(fmt.Sprintf("%s/tokens=%d", cfg.Name, tokens), func(b *testing.B) {
				g := trace.New(cfg, trace.DefaultOptions(benchTraceSeed))
				g.Advance()
				for l := 0; l < cfg.Layers; l++ {
					g.PrefillLoads(l, tokens)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.PrefillLoads(i%cfg.Layers, tokens)
				}
			})
		}
	}
}

func BenchmarkTensorGatedFFN(b *testing.B) {
	rng := stats.NewRNG(6)
	wg := tensor.NewMatrix(256, 128)
	wu := tensor.NewMatrix(256, 128)
	wd := tensor.NewMatrix(128, 256)
	wg.FillRandom(rng)
	wu.FillRandom(rng)
	wd.FillRandom(rng)
	x := make([]float32, 128)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	b.SetBytes(int64(3 * 256 * 128 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.GatedFFN(wg, wu, wd, x)
	}
}

func BenchmarkQuantMatVec(b *testing.B) {
	rng := stats.NewRNG(7)
	m := tensor.NewMatrix(256, 512)
	m.FillRandom(rng)
	q := quant.Quantize(m, 4, 128)
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	dst := make([]float32, 256)
	b.SetBytes(quant.SizeBytes(q.Rows, q.Cols, q.Bits, q.GroupSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MatVec(dst, x)
	}
}

func BenchmarkEngineDecodeStep(b *testing.B) {
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(8))
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: the first step grows the schedulers' plans and the pooled
	// scratch, which a single timed iteration would otherwise count.
	step := workload.Request{DecodeTokens: 1}
	serveAlone(e, step)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveAlone(e, step)
	}
}

// BenchmarkReqSchedNext times one request-scheduling decision per
// built-in policy over a 64-deep active set — the per-iteration cost
// the pluggable scheduler adds to the Session loop.
func BenchmarkReqSchedNext(b *testing.B) {
	rng := stats.NewRNG(10)
	active := make([]reqsched.Request, 64)
	for i := range active {
		active[i] = reqsched.Request{
			ID: i, Seq: i,
			RemainingDecode: 1 + rng.Intn(64),
			Deadline:        rng.Float64() * 10,
			Priority:        rng.Intn(3),
		}
	}
	for _, name := range []string{"fcfs", "round-robin", "sjf", "edf"} {
		b.Run(name, func(b *testing.B) {
			s, err := reqsched.New(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				idx := s.Next(0, active)
				s.Stepped(idx, nil)
			}
		})
	}
}

// BenchmarkSessionServeEDFAdmission times the serving loop with the
// deadline-aware scheduler and the SLO admission guard engaged — the
// overhead of live-quantile admission on top of BenchmarkSessionServe.
func BenchmarkSessionServeEDFAdmission(b *testing.B) {
	stream := workload.NewStream(benchWorkloadSeed, workload.AllDatasets()...)
	reqs := stream.NextN(4)
	for i := range reqs {
		if reqs[i].DecodeTokens > 4 {
			reqs[i].DecodeTokens = 4
		}
	}
	workload.AssignDeadlines(reqs, 0.05, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
			engine.WithCacheRatio(0.25), engine.WithSeed(benchWorkloadSeed),
			engine.WithRequestScheduler("edf"),
			engine.WithAdmission(engine.NewSLOAdmission(0.2, 0.05)))
		if err != nil {
			b.Fatal(err)
		}
		s := e.NewSession(engine.WithMaxConcurrent(2))
		s.Submit(reqs...)
		b.StartTimer()
		s.Run(nil)
	}
}

// BenchmarkSessionServe times serving a 4-request mixed stream through
// the streaming Session loop on the full HybriMoE stack.
func BenchmarkSessionServe(b *testing.B) {
	stream := workload.NewStream(benchWorkloadSeed, workload.AllDatasets()...)
	reqs := stream.NextN(4)
	for i := range reqs {
		if reqs[i].DecodeTokens > 4 {
			reqs[i].DecodeTokens = 4
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Engine construction (and its cache warm-up) is setup, not the
		// serving loop under test.
		b.StopTimer()
		e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
			engine.WithCacheRatio(0.25), engine.WithSeed(benchWorkloadSeed))
		if err != nil {
			b.Fatal(err)
		}
		s := e.NewSession(engine.WithMaxConcurrent(2))
		s.Submit(reqs...)
		b.StartTimer()
		s.Run(nil)
	}
}

// BenchmarkSessionServeBatchedDecode times the continuous-batching
// serving path: 8 decode-heavy requests merged by the greedy batch
// former at WithMaxConcurrent(8) — the merged-iteration loop the
// bench-trend gate watches. The custom metric reports simulated decode
// throughput, so a regression in batch formation (batches shrinking,
// merged iterations slowing) moves a gated unit even at -benchtime=1x.
func BenchmarkSessionServeBatchedDecode(b *testing.B) {
	stream := workload.NewStream(benchWorkloadSeed, workload.AllDatasets()...)
	reqs := stream.NextN(8)
	for i := range reqs {
		if reqs[i].DecodeTokens > 12 {
			reqs[i].DecodeTokens = 12
		}
	}
	var tokens int
	var clockEnd float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
			engine.WithCacheRatio(0.25), engine.WithSeed(benchWorkloadSeed),
			engine.WithBatchPolicy("greedy", 64))
		if err != nil {
			b.Fatal(err)
		}
		s := e.NewSession(engine.WithMaxConcurrent(8))
		s.Submit(reqs...)
		b.StartTimer()
		tokens, clockEnd = 0, 0
		s.Run(func(ev engine.StepEvent) {
			if ev.Phase == engine.PhaseDecode {
				tokens += ev.Tokens
			}
			if ev.End > clockEnd {
				clockEnd = ev.End
			}
		})
	}
	if clockEnd > 0 {
		b.ReportMetric(float64(tokens)/clockEnd, "sim-tok/s")
	}
}

// BenchmarkFleetAffinityRouting times dispatching a Poisson burst
// across a 4-replica fleet under cache-affinity routing: router scoring
// per arrival (predicted-residency views over every replica) plus the
// cluster's lockstep min-clock advance — the multi-replica serving path
// the bench-trend gate watches. The custom metric reports aggregate
// simulated goodput, so a routing or lockstep regression moves a gated
// unit even at -benchtime=1x.
func BenchmarkFleetAffinityRouting(b *testing.B) {
	reqs := workload.NewStream(benchFleetSeed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(24)).
		NextN(12)
	workload.CapDecode(reqs, 6)
	var completed int
	var clockEnd float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fleet construction (four engine stacks with cache warm-up) is
		// setup, not the dispatch loop under test.
		b.StopTimer()
		c, err := exp.NewFleet(4, "affinity", benchFleetSeed, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		c.Submit(reqs...)
		b.StartTimer()
		completed, clockEnd = 0, 0
		c.Run(func(ev cluster.Event) {
			if ev.End > clockEnd {
				clockEnd = ev.End
			}
			if ev.Done {
				completed++
			}
		})
	}
	if clockEnd > 0 {
		b.ReportMetric(float64(completed)/clockEnd, "sim-req/s")
	}
}

// BenchmarkFleetChurn times the lifecycle-heavy fleet path the churn
// study sweeps: a 3-replica fleet absorbing a mid-run stall (lease
// expiry, queue reclaim and re-route) plus a cold standby scale-up, so
// failure detection, session reclaim and warming promotion all sit on
// the gated path. The custom metric is goodput net of the lost
// in-flight work — a regression in recovery shows up even when the
// wall time holds.
func BenchmarkFleetChurn(b *testing.B) {
	reqs := workload.NewStream(benchFleetSeed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(16)).
		NextN(16)
	workload.CapDecode(reqs, 6)
	var completed int
	var clockEnd float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := exp.NewFleet(3, "affinity", benchFleetSeed, 0.25,
			cluster.WithFailure(1, 0.2, cluster.FailStall),
			cluster.WithScalePlan(cluster.ScaleEvent{At: 0.2, Delta: 1}))
		if err != nil {
			b.Fatal(err)
		}
		c.Submit(reqs...)
		b.StartTimer()
		completed, clockEnd = 0, 0
		c.Run(func(ev cluster.Event) {
			if ev.Kind != cluster.EventStep {
				return
			}
			if ev.End > clockEnd {
				clockEnd = ev.End
			}
			if ev.Done {
				completed++
			}
		})
	}
	if clockEnd > 0 {
		b.ReportMetric(float64(completed)/clockEnd, "sim-req/s")
	}
}

// benchParallelFleetRequests is the horizon-batched benchmark workload:
// a brief arrival burst followed by long decode tails, so once dispatch
// drains the burst the fleet sits in one giant safe window — the shape
// parallel stepping accelerates. Fixed lengths (no dataset draw) keep
// the step count byte-stable across machines and commits.
func benchParallelFleetRequests() []workload.Request {
	reqs := make([]workload.Request, 12)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, PromptTokens: 48, DecodeTokens: 120,
			Arrival: float64(i) * 0.01,
		}
	}
	return reqs
}

// BenchmarkFleetParallelStep times the same 4-replica drain at 1, 2 and
// 4 cluster workers (cluster.WithWorkers — the goroutines each horizon
// window fans replicas out to, byte-identical event stream at any
// count), so the ns/op at each count land in BENCH_<sha>.json side by
// side. The multi-worker sub-benchmarks also wall-clock a one-worker
// twin in untimed setup and report the speedup as a gated custom
// metric (speedup-vs-serial: one worker runs every window on the
// caller's goroutine), tracking the scaling win per commit; the events
// metric pins determinism — it must never move between worker counts
// or commits.
func BenchmarkFleetParallelStep(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			reqs := benchParallelFleetRequests()
			newFleet := func(workers int) *cluster.Cluster {
				c, err := exp.NewFleet(4, "round-robin", benchFleetSeed, 0.25,
					cluster.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				c.Submit(reqs...)
				return c
			}
			var events int
			var serialWall, parWall time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := newFleet(w)
				if w > 1 {
					base := newFleet(1)
					t0 := time.Now()
					base.Run(nil)
					serialWall += time.Since(t0)
				}
				b.StartTimer()
				t0 := time.Now()
				events = c.Run(nil)
				parWall += time.Since(t0)
			}
			if events == 0 {
				b.Fatal("drain emitted no events")
			}
			b.ReportMetric(float64(events), "events")
			if w > 1 && parWall > 0 {
				b.ReportMetric(float64(serialWall)/float64(parWall), "speedup-vs-serial")
			}
		})
	}
}

// BenchmarkDisaggHandoff times the disaggregated serving path: a
// 3-replica fleet split 1:2 into prefill/decode pools, so every request
// rides the full stage-split machinery — export-mode prefill, priced KV
// checkpoint transfer over the interconnect, checkpoint-aware decode
// routing and warm working-set adoption. The custom metric reports
// simulated goodput including every migration, so a regression in the
// handoff path (transfers mispriced, adoption stalling dispatch) moves
// a gated unit even at -benchtime=1x.
func BenchmarkDisaggHandoff(b *testing.B) {
	reqs := workload.NewStream(benchFleetSeed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(20)).
		NextN(12)
	workload.CapDecode(reqs, 6)
	var completed, handoffs int
	var clockEnd float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := exp.NewFleet(3, "affinity", benchFleetSeed, 0.25,
			cluster.WithPools(cluster.PoolSpec{Prefill: 1, Decode: 2}))
		if err != nil {
			b.Fatal(err)
		}
		c.Submit(reqs...)
		b.StartTimer()
		completed, clockEnd = 0, 0
		c.Run(func(ev cluster.Event) {
			if ev.Kind != cluster.EventStep {
				return
			}
			if ev.End > clockEnd {
				clockEnd = ev.End
			}
			if ev.Done {
				completed++
			}
		})
		handoffs = c.Metrics().Handoffs
	}
	if completed != len(reqs) || handoffs != len(reqs) {
		b.Fatalf("completed %d, migrated %d of %d requests", completed, handoffs, len(reqs))
	}
	if clockEnd > 0 {
		b.ReportMetric(float64(completed)/clockEnd, "sim-req/s")
	}
}

// --- Event-queue microbenchmark ----------------------------------------

// BenchmarkMillionRequests is a microbenchmark of the event queue: 2^20
// seeded Poisson arrivals flow through one sim.Queue, each popped
// arrival booking deterministic service on the least-busy of eight
// servers (each a float64 busy frontier, as the engine keeps its
// resources) and scheduling its completion back onto the queue (so the
// heap constantly interleaves arrivals and completions, the Session's
// event mix). It never touches an engine, a Session or a cluster, so
// its sim-req/s (simulated requests per wall-clock second) bounds the
// event loop's own overhead and says nothing about serving throughput;
// bench/'s engine-backed workloads measure that. The queue and
// frontiers are reused across iterations, so the steady-state loop is
// allocation-free (gated by the -benchmem allocs/op column in the bench
// trend).
func BenchmarkMillionRequests(b *testing.B) {
	const (
		requests = 1 << 20
		servers  = 8
		rate     = 4e6 // arrivals per simulated second
	)
	// Pre-draw the workload so RNG cost stays out of the event loop; the
	// fixed seed keeps the simulated totals bit-identical across runs.
	rng := stats.NewRNG(benchTraceSeed)
	arrivals := make([]float64, requests)
	service := make([]float64, requests)
	clock := 0.0
	for i := range arrivals {
		clock += rng.Exp(rate)
		arrivals[i] = clock
		service[i] = (1 + rng.Float64()) / rate * servers / 2
	}
	var q sim.Queue[int32]    // payload: request index, or ^index for a completion
	var busy [servers]float64 // when each server frees up
	var done int
	var makespan float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q.Reset()
		busy = [servers]float64{}
		done, makespan = 0, 0
		next := 0
		// Sliding arrival window: pushing the next arrival when one pops
		// keeps the heap at queue-depth scale, the Session's shape.
		for ; next < 64 && next < requests; next++ {
			q.Push(arrivals[next], int32(next))
		}
		for {
			at, v, ok := q.PopMin()
			if !ok {
				break
			}
			if v < 0 { // completion
				done++
				if at > makespan {
					makespan = at
				}
				continue
			}
			least := 0
			for s := 1; s < servers; s++ {
				if busy[s] < busy[least] {
					least = s
				}
			}
			end := max(at, busy[least]) + service[v]
			busy[least] = end
			q.Push(end, ^v)
			if next < requests {
				q.Push(arrivals[next], int32(next))
				next++
			}
		}
	}
	b.StopTimer()
	if done != requests || makespan <= arrivals[requests-1] {
		b.Fatalf("completed %d of %d requests, makespan %v", done, requests, makespan)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(requests)*float64(b.N)/secs, "sim-req/s")
	}
}
