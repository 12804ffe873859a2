package exp

import (
	"fmt"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/trace"
)

// Fig7 reproduces the prefill comparison: TTFT for every model, input
// length and cache ratio, across the four frameworks, with the speedup
// over kTransformers that the paper's secondary axis shows. It also
// returns that speedup column, in row order.
func Fig7(p Params) (*report.Table, []float64) {
	platform := hw.A6000Platform()
	var cells []Cell
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			for _, length := range PrefillLengths {
				cells = append(cells, func() []Row {
					lats := compareFrameworks(func(fw engine.Framework) float64 {
						return mustEngine(cfg, platform, fw, ratio, p.Seed).RunPrefill(length).Total
					})
					return []Row{append(Row{cfg.Name, pct(ratio), length}, lats...)}
				})
			}
		}
	}
	return speedupTable("Fig 7: prefill TTFT across lengths and cache ratios",
		[]string{"model", "cache", "len", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup-vs-KTrans"},
		runCells(cells))
}

// Fig7MeanSpeedup computes the average HybriMoE speedup over
// kTransformers across the Fig. 7 grid (the paper reports 1.33×).
func Fig7MeanSpeedup(p Params) float64 {
	_, speedups := Fig7(p)
	return mean(speedups)
}

// Fig8 reproduces the decode comparison: mean TBT per model and cache
// ratio across the four frameworks, plus the speedup over kTransformers.
// It also returns that speedup column, in row order.
func Fig8(p Params) (*report.Table, []float64) {
	platform := hw.A6000Platform()
	var cells []Cell
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			cells = append(cells, func() []Row {
				lats := compareFrameworks(func(fw engine.Framework) float64 {
					return mustEngine(cfg, platform, fw, ratio, p.Seed).RunDecode(p.DecodeSteps).Mean()
				})
				return []Row{append(Row{cfg.Name, pct(ratio)}, lats...)}
			})
		}
	}
	return speedupTable("Fig 8: decode TBT across cache ratios",
		[]string{"model", "cache", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup-vs-KTrans"},
		runCells(cells))
}

// Fig8MeanSpeedup computes the average decode speedup over
// kTransformers (the paper reports 1.70×).
func Fig8MeanSpeedup(p Params) float64 {
	_, speedups := Fig8(p)
	return mean(speedups)
}

// compareFrameworks runs lat once per framework and returns the
// latencies in the comparison tables' column order (llama.cpp, AdapMoE,
// kTransformers, HybriMoE), then HybriMoE's speedup over kTransformers.
func compareFrameworks(lat func(engine.Framework) float64) Row {
	lats := make(map[string]float64, 4)
	for _, fw := range engine.AllFrameworks() {
		lats[fw.Name] = lat(fw)
	}
	return Row{lats["llama.cpp"], lats["AdapMoE"], lats["KTransformers"], lats["HybriMoE"],
		lats["KTransformers"] / lats["HybriMoE"]}
}

// speedupTable renders a comparison grid whose rows end in the speedup
// column and returns that column, in row order.
func speedupTable(title string, cols []string, results [][]Row) (*report.Table, []float64) {
	var speedups []float64
	for _, rows := range results {
		for _, r := range rows {
			speedups = append(speedups, r[len(r)-1].(float64))
		}
	}
	return tableFromCells(title, cols, results), speedups
}

// mean sums xs in order and divides by the count.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table3 reproduces the ablation: Qwen2 at 25% cache, prefill (128
// tokens) and decode, with each technique enabled alone and together.
func Table3(p Params) *report.Table {
	return tableFromCells("Table III: speedup breakdown (Qwen2, 25% cache)",
		[]string{"stage", "technique", "latency(s)", "speedup"}, [][]Row{table3Rows(p)})
}

// table3Rows computes Table III's rows: stage, technique, latency and
// speedup over that stage's Baseline.
func table3Rows(p Params) []Row {
	platform := hw.A6000Platform()
	cfg := moe.Qwen2()

	var rows []Row
	var prefillBase, decodeBase float64
	for _, fw := range engine.AblationFrameworks() {
		if fw.Name == "Baseline+Caching" {
			// The paper's Table III reports no prefill row for caching:
			// a single prefill forward never revisits an expert, so
			// cache policy cannot help that stage.
			continue
		}
		pre := mustEngine(cfg, platform, fw, 0.25, p.Seed).RunPrefill(128).Total
		if fw.Name == "Baseline" {
			prefillBase = pre
		}
		rows = append(rows, Row{"prefill", fw.Name, pre, prefillBase / pre})
	}
	for _, fw := range engine.AblationFrameworks() {
		dec := mustEngine(cfg, platform, fw, 0.25, p.Seed).RunDecode(p.DecodeSteps).Mean()
		if fw.Name == "Baseline" {
			decodeBase = dec
		}
		rows = append(rows, Row{"decode", fw.Name, dec, decodeBase / dec})
	}
	return rows
}

// Fig9 reproduces the cache-policy study: steady-state hit rate of MRS
// vs LRU for all three models across cached-expert percentages, using
// the pure cache simulation (no scheduling in the loop, exactly like
// the paper's hit-rate counters).
func Fig9(p Params) *report.Table {
	return tableFromCells("Fig 9: cache hit rate, MRS vs LRU",
		[]string{"model", "cached-%", "LRU", "MRS", "delta"}, runCells(fig9Cells(p)))
}

// fig9Cells is Fig 9's grid: one cell per model and cached-expert
// percentage, each driving an LRU and an MRS cache.
func fig9Cells(p Params) []Cell {
	var cells []Cell
	for _, cfg := range moe.AllModels() {
		for _, pctCap := range []int{30, 40, 50, 60, 70, 75} {
			cells = append(cells, func() []Row {
				ratio := float64(pctCap) / 100
				opts := trace.DefaultOptions(p.Seed)
				lru := CacheHitRate(cfg, cache.NewLRU(), ratio, p.HitRateIters, opts)
				mrs := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), ratio, p.HitRateIters, opts)
				return []Row{{cfg.Name, pctCap, lru, mrs, mrs - lru}}
			})
		}
	}
	return cells
}

// CacheHitRate drives a cache with policy through iters decode
// iterations of cfg's synthetic trace, generated under opts, at the
// given capacity ratio and returns the steady-state hit rate (first
// quarter excluded as warm-up). Like the engine's, the eviction guard
// spares the current layer's activated experts; they are looked up and
// inserted in descending score order, which LRU recency depends on.
func CacheHitRate(cfg *moe.Config, policy cache.Policy, ratio float64, iters int, opts trace.Options) float64 {
	g := trace.New(cfg, opts)
	c := cache.New(cfg.CacheCapacity(ratio), policy)
	var warm []moe.ExpertID
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.RoutedExperts; e++ {
			warm = append(warm, moe.ExpertID{Layer: l, Index: e})
		}
	}
	c.Warm(warm)
	loads := make([]int, cfg.RoutedExperts)
	for i := 0; i < iters; i++ {
		g.Advance()
		for l := 0; l < cfg.Layers; l++ {
			acts := g.Activated(l)
			clear(loads)
			for _, e := range acts {
				loads[e] = 1
			}
			guard := cache.Guard{Layer: l, Loads: loads}
			for _, e := range acts {
				id := moe.ExpertID{Layer: l, Index: e}
				if !c.Lookup(id) {
					c.Insert(id, guard)
				}
			}
			c.ObserveScores(l, g.Scores(l))
		}
		if i == iters/4 {
			c.ResetStats()
		}
	}
	return c.HitRate()
}

func mustEngine(cfg *moe.Config, platform *hw.Platform, fw engine.Framework, ratio float64, seed uint64, opts ...engine.Option) *engine.Engine {
	opts = append([]engine.Option{engine.WithCacheRatio(ratio), engine.WithSeed(seed)}, opts...)
	e, err := engine.New(cfg, platform, fw, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

func pct(ratio float64) string { return fmt.Sprintf("%.0f%%", ratio*100) }
