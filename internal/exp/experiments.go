// Package exp contains one driver per table/figure of the paper's
// evaluation. Each driver sets up the workload the paper describes,
// runs it through the engine (or the relevant subsystem), and returns a
// report structure printing the same rows/series the paper plots.
// cmd/hybrimoe, the examples and the root benchmark suite all call
// these drivers, so every published number has exactly one generator.
package exp

import (
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// Params bundles the experiment-scale knobs so benchmarks can shrink
// runs without touching workload semantics.
type Params struct {
	Seed uint64
	// DecodeSteps is the decode iterations measured per configuration.
	DecodeSteps int
	// CDFIters is the trace length for distribution studies (Fig 3a/b).
	CDFIters int
	// HitRateIters is the trace length for Figure 9.
	HitRateIters int
}

// DefaultParams returns the full-size experiment configuration.
func DefaultParams() Params {
	return Params{Seed: 2025, DecodeSteps: 50, CDFIters: 400, HitRateIters: 300}
}

// QuickParams returns a reduced configuration for smoke tests.
func QuickParams() Params {
	return Params{Seed: 2025, DecodeSteps: 8, CDFIters: 60, HitRateIters: 60}
}

// PrefillLengths are the paper's prompt-length buckets ("around 32, 128,
// 512 and 1024 tokens").
var PrefillLengths = []int{32, 128, 512, 1024}

// CacheRatios are the paper's GPU expert cache ratios.
var CacheRatios = []float64{0.25, 0.50, 0.75}

// Fig3a reproduces the cumulative activation-frequency CDF: neuron-level
// sparsity (OPT reference) saturates quickly, while Mixtral and DeepSeek
// expert activations are far more even.
func Fig3a(p Params) *report.Figure {
	fig := report.NewFigure("Fig 3(a): cumulative activation frequency CDF", "top-%")
	neuron := trace.NeuronActivationCounts(4096, p.CDFIters, 256, 1.1, p.Seed)
	mixCounts := trace.ActivationCounts(trace.New(moe.Mixtral(), trace.DefaultOptions(p.Seed)), p.CDFIters)
	dsCounts := trace.ActivationCounts(trace.New(moe.DeepSeek(), trace.DefaultOptions(p.Seed)), p.CDFIters)

	series := map[string][]int64{
		"Opt-Neuron":      neuron,
		"Mixtral-Expert":  mixCounts,
		"Deepseek-Expert": dsCounts,
	}
	order := []string{"Opt-Neuron", "Mixtral-Expert", "Deepseek-Expert"}
	// Sample the CDF at 5% steps of the population.
	for _, name := range order {
		s := fig.AddSeries(name)
		cdf := stats.FrequencyCDF(series[name])
		for pct := 5; pct <= 100; pct += 5 {
			idx := len(cdf)*pct/100 - 1
			if idx < 0 {
				idx = 0
			}
			s.AddPoint(float64(pct), 100*cdf[idx])
		}
	}
	return fig
}

// Fig3b reproduces the reuse probability of experts by score rank for
// DeepSeek: high-scoring experts (activated or not) are far more likely
// to be activated in the next iteration.
func Fig3b(p Params) *report.Figure {
	fig := report.NewFigure("Fig 3(b): reuse probability by score rank (DeepSeek)", "rank")
	g := trace.New(moe.DeepSeek(), trace.DefaultOptions(p.Seed))
	reuse := trace.ReuseByRank(g, p.CDFIters)
	s := fig.AddSeries("reuse-probability")
	for r, v := range reuse {
		s.AddPoint(float64(r), v)
	}
	return fig
}

// Fig3c reproduces the per-expert workload distribution of one DeepSeek
// prefill forward (128 tokens): loads vary widely across experts.
func Fig3c(p Params) *report.Figure {
	fig := report.NewFigure("Fig 3(c): DeepSeek prefill-128 expert workloads (layer 0)", "expert")
	g := trace.New(moe.DeepSeek(), trace.DefaultOptions(p.Seed))
	g.Advance()
	loads := g.PrefillLoads(0, 128)
	s := fig.AddSeries("workload")
	for e, l := range loads {
		s.AddPoint(float64(e), float64(l))
	}
	return fig
}

// Fig3d reproduces the motivating comparison of the three existing
// frameworks on Qwen2 prefill-128, Mixtral prefill-128 and Mixtral
// decode-10 (25% cache): no strategy wins everywhere.
func Fig3d(p Params) *report.Table {
	t := report.NewTable("Fig 3(d): existing frameworks across scenarios (25% cache)",
		"scenario", "llama.cpp(s)", "AdapMoE(s)", "KTransformers(s)")
	platform := hw.A6000Platform()
	frameworks := []engine.Framework{
		engine.LlamaCppFramework(),
		engine.AdapMoEFramework(),
		engine.KTransformersFramework(),
	}
	type scenario struct {
		name    string
		cfg     *moe.Config
		prefill int // 0 = decode
		steps   int
	}
	scenarios := []scenario{
		{"Qwen2 prefill-128", moe.Qwen2(), 128, 0},
		{"Mixtral prefill-128", moe.Mixtral(), 128, 0},
		{"Mixtral decode-10", moe.Mixtral(), 0, 10},
	}
	for _, sc := range scenarios {
		row := []interface{}{sc.name}
		for _, fw := range frameworks {
			total, _ := serveAlone(sc.cfg, platform, fw, 0.25, p.Seed,
				workload.Request{PromptTokens: sc.prefill, DecodeTokens: sc.steps})
			row = append(row, total)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3e reproduces CPU vs GPU time for 1..7 experts at a fixed
// (decode-size) load: the CPU's first expert pays a warm-up, later ones
// amortise it; GPU time is linear in expert count.
func Fig3e() *report.Figure {
	fig := report.NewFigure("Fig 3(e): device time vs expert count (DeepSeek decode load)", "experts")
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()
	cpu := fig.AddSeries("CPU(s)")
	gpu := fig.AddSeries("GPU(s)")
	for n := 1; n <= 7; n++ {
		var cpuTotal, gpuTotal float64
		for i := 0; i < n; i++ {
			cpuTotal += platform.CPU.ExpertTime(cfg.ExpertFlops(1), cfg.ExpertBytes(), i == 0)
			gpuTotal += platform.GPUs[0].ExpertTime(cfg.ExpertFlops(1), cfg.ExpertBytes())
		}
		cpu.AddPoint(float64(n), cpuTotal)
		gpu.AddPoint(float64(n), gpuTotal)
	}
	return fig
}

// Fig3f reproduces CPU and GPU time across workload sizes for one
// expert: GPU time stays nearly flat while CPU time grows linearly.
func Fig3f() *report.Figure {
	fig := report.NewFigure("Fig 3(f): device time vs workload size (DeepSeek expert)", "tokens")
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()
	cpu := fig.AddSeries("CPU(s)")
	gpu := fig.AddSeries("GPU(s)")
	for _, tokens := range []int{1, 64, 128, 256, 384, 512, 640, 768, 896, 1024} {
		cpu.AddPoint(float64(tokens), platform.CPU.ExpertTime(cfg.ExpertFlops(tokens), cfg.ExpertBytes(), false))
		gpu.AddPoint(float64(tokens), platform.GPUs[0].ExpertTime(cfg.ExpertFlops(tokens), cfg.ExpertBytes()))
	}
	return fig
}
