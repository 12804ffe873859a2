// Quickstart: build a HybriMoE engine for DeepSeek-V2-Lite on the
// A6000-class platform with the functional-options API, decode 32
// tokens through a Session, and print the paper's decode metric (TBT)
// from its events, the cache and op counters from its Metrics snapshot,
// and the execution timeline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

func main() {
	cfg, fw := moe.DeepSeek(), engine.HybriMoEFramework()
	e, err := engine.New(cfg, hw.A6000Platform(), fw,
		engine.WithCacheRatio(0.25), // 25% of routed experts fit in GPU memory
		engine.WithSeed(42),
		engine.WithTraceRecording(),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A request without a prompt is a decode-only burst: one event per
	// generated token, each carrying that step's latency (its TBT).
	const steps = 32
	s := e.NewSession()
	s.Submit(workload.Request{DecodeTokens: steps})
	var total float64
	n := s.Run(func(ev engine.StepEvent) { total += ev.Latency })
	tbt := total / float64(n)
	m := s.Metrics()

	fmt.Printf("model           : %s\n", cfg.Name)
	fmt.Printf("framework       : %s\n", fw.Name)
	fmt.Printf("decode steps    : %d\n", steps)
	fmt.Printf("mean TBT        : %.4f s\n", tbt)
	fmt.Printf("throughput      : %.1f tok/s\n", 1/tbt)
	fmt.Printf("cache hit rate  : %.1f%%\n", 100*m.HitRate())
	fmt.Printf("expert ops      : %d on CPU, %d on GPU\n", m.CPUOps, m.GPUOps)
	fmt.Printf("transfers       : %d on-demand, %d prefetched\n",
		m.DemandTransfers, m.PrefetchTransfers)

	fmt.Println("\nexecution timeline (a=attention, L=experts, p=prefetch, m=miss insert):")
	fmt.Print(e.Gantt(100))
}
