// Chat decode study: the paper's decode-stage scenario (Figure 8) in
// miniature. For each evaluated model it compares the four frameworks'
// token latency at a tight 25% expert cache, then shows what the MRS
// cache policy contributes over LRU at equal capacity.
//
// Run with: go run ./examples/chat_decode
package main

import (
	"fmt"
	"log"
	"os"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

func main() {
	const (
		steps = 40
		ratio = 0.25
		seed  = 7
	)
	platform := hw.A6000Platform()

	tbl := report.NewTable("Decode TBT at 25% cache (40 generated tokens)",
		"model", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup")
	for _, cfg := range moe.AllModels() {
		lats := map[string]float64{}
		for _, fw := range engine.AllFrameworks() {
			e, err := engine.New(cfg, platform, fw, engine.WithCacheRatio(ratio), engine.WithSeed(seed))
			if err != nil {
				log.Fatal(err)
			}
			// A decode-only burst: one event per generated token.
			s := e.NewSession()
			s.Submit(workload.Request{DecodeTokens: steps})
			var total float64
			n := s.Run(func(ev engine.StepEvent) { total += ev.Latency })
			lats[fw.Name] = total / float64(n)
		}
		tbl.AddRow(cfg.Name,
			lats["llama.cpp"], lats["AdapMoE"], lats["KTransformers"], lats["HybriMoE"],
			lats["KTransformers"]/lats["HybriMoE"])
	}
	tbl.Render(os.Stdout)

	fmt.Println()
	hit := report.NewTable("Cache policy at 30% capacity (steady-state hit rate)",
		"model", "LRU", "MRS", "gain")
	opts := trace.DefaultOptions(seed)
	for _, cfg := range moe.AllModels() {
		lru := exp.CacheHitRate(cfg, cache.NewLRU(), 0.30, 200, opts)
		mrs := exp.CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), 0.30, 200, opts)
		hit.AddRow(cfg.Name, lru, mrs, mrs-lru)
	}
	hit.Render(os.Stdout)
}
