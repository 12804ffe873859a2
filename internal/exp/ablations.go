package exp

import (
	"hybrimoe/internal/cache"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/report"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// AblationGreedyVsExhaustive measures the cost of scheduling greedily:
// how close HybriMoE's timeline-filling simulation gets to the
// brute-force CPU/GPU assignment optimum, over random layer instances.
// Returns the mean and worst greedy/optimal makespan ratios.
func AblationGreedyVsExhaustive(trials int, seed uint64) (mean, worst float64) {
	rng := stats.NewRNG(seed)
	p := hw.A6000Platform()
	cfg := moe.DeepSeek()
	var sum float64
	n := 0
	for trial := 0; trial < trials; trial++ {
		tasks := randomTasks(rng, cfg, 2+rng.Intn(8))
		greedy := sched.NewHybriMoE().Plan(tasks, p, sched.Resources{}).Makespan
		opt := sched.NewExhaustive().Plan(tasks, p, sched.Resources{}).Makespan
		if opt <= 0 {
			continue
		}
		ratio := greedy / opt
		sum += ratio
		n++
		if ratio > worst {
			worst = ratio
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), worst
}

func randomTasks(rng *stats.RNG, cfg *moe.Config, n int) []sched.Task {
	var tasks []sched.Task
	for e := 0; e < n; e++ {
		load := 1
		if rng.Float64() < 0.5 {
			load = 1 + rng.Intn(96)
		}
		tasks = append(tasks, sched.Task{
			ID:     moe.ExpertID{Layer: 0, Index: e},
			Load:   load,
			Flops:  cfg.ExpertFlops(load),
			Bytes:  cfg.ExpertBytes(),
			Cached: rng.Float64() < 0.4,
		})
	}
	return tasks
}

// AblationMRSTopP measures how wide MRS's score accumulation should be:
// steady-state hit rate as the top-p width varies (the paper fixes
// p = 2K). Returns a table of p multiplier vs hit rate for DeepSeek at
// 40% capacity.
func AblationMRSTopP(p Params) *report.Table {
	t := report.NewTable("Ablation: MRS top-p width (DeepSeek, 40% cache)",
		"p/K", "hit-rate")
	cfg := moe.DeepSeek()
	opts := trace.DefaultOptions(p.Seed)
	for _, mult := range []int{1, 2, 4, 8} {
		hr := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, mult*cfg.ActivatedExperts),
			0.40, p.HitRateIters, opts)
		t.AddRow(mult, hr)
	}
	// Full-width accumulation (p = N) as the degenerate case.
	hr := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, cfg.RoutedExperts),
		0.40, p.HitRateIters, opts)
	t.AddRow(cfg.RoutedExperts/cfg.ActivatedExperts, hr)
	return t
}

// AblationLookahead measures how far ahead prefetching should look:
// decode latency as the impact-driven prefetcher's window varies (the
// paper uses 3 layers; window 0 disables prefetch).
func AblationLookahead(p Params) *report.Table {
	t := report.NewTable("Ablation: prefetch lookahead window (DeepSeek, 25% cache)",
		"window", "decode-TBT(s)")
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()
	burst := workload.Request{DecodeTokens: p.DecodeSteps}
	for _, window := range []int{0, 1, 3, 5} {
		fw := engine.HybriMoEFramework()
		var opts []engine.Option
		if window == 0 {
			fw.Prefetch = "none"
		} else {
			opts = append(opts, engine.WithPrefetcher(&prefetch.ImpactDriven{Window: window}))
		}
		sum, n := serveAlone(cfg, platform, fw, 0.25, p.Seed, burst, opts...)
		t.AddRow(window, sum/float64(n))
	}
	return t
}

// AblationPrefetchPolicy compares impact-driven against naive
// next-layer-top-k and no prefetching, all else equal.
func AblationPrefetchPolicy(p Params) *report.Table {
	t := report.NewTable("Ablation: prefetch policy (DeepSeek, 25% cache)",
		"policy", "decode-TBT(s)")
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()
	burst := workload.Request{DecodeTokens: p.DecodeSteps}
	for _, policy := range []string{"none", "next-layer-topk", "impact-driven"} {
		fw := engine.HybriMoEFramework()
		fw.Prefetch = policy
		sum, n := serveAlone(cfg, platform, fw, 0.25, p.Seed, burst)
		t.AddRow(policy, sum/float64(n))
	}
	return t
}

// AblationCPUWarmup measures what the CPU cost model's warm-up term is
// worth: decode latency when the scheduler plans with the CPU's
// first-expert warm-up penalty against a platform that omits it.
func AblationCPUWarmup(p Params) *report.Table {
	t := report.NewTable("Ablation: CPU warm-up modelling (DeepSeek, 25% cache)",
		"warmup-model", "decode-TBT(s)")
	cfg := moe.DeepSeek()
	with := hw.A6000Platform()
	without := hw.A6000Platform()
	without.CPU.WarmupPenalty = 0
	burst := workload.Request{DecodeTokens: p.DecodeSteps}
	for _, c := range []struct {
		name     string
		platform *hw.Platform
	}{{"modelled", with}, {"ignored", without}} {
		sum, n := serveAlone(cfg, c.platform, engine.HybriMoEFramework(), 0.25, p.Seed, burst)
		t.AddRow(c.name, sum/float64(n))
	}
	return t
}

// platformSweep runs the headline decode comparison on the laptop-class
// platform, checking the result shape holds beyond the paper's testbed:
// one cell per model, each running the kTransformers and HybriMoE
// decode pair.
func platformSweep(p Params) *report.Table {
	platform := hw.LaptopPlatform()
	var cells []Cell
	for _, cfg := range moe.AllModels() {
		cells = append(cells, func() []Row {
			burst := workload.Request{DecodeTokens: p.DecodeSteps}
			ktSum, ktN := serveAlone(cfg, platform, engine.KTransformersFramework(), 0.25, p.Seed, burst)
			hySum, hyN := serveAlone(cfg, platform, engine.HybriMoEFramework(), 0.25, p.Seed, burst)
			kt, hy := ktSum/float64(ktN), hySum/float64(hyN)
			return []Row{{cfg.Name, kt, hy, kt / hy}}
		})
	}
	return tableFromCells("Platform sweep: decode TBT on laptop-class hardware (25% cache)",
		[]string{"model", "KTrans(s)", "HybriMoE(s)", "speedup"}, runCells(cells))
}
