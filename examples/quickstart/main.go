// Quickstart: build a HybriMoE engine for DeepSeek-V2-Lite on the
// A6000-class platform with the functional-options API, decode 32
// tokens, and print the paper's decode metric (TBT) together with cache
// statistics and the execution timeline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
)

func main() {
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), // 25% of routed experts fit in GPU memory
		engine.WithSeed(42),
		engine.WithTraceRecording(),
	)
	if err != nil {
		log.Fatal(err)
	}

	const steps = 32
	res := e.RunDecode(steps)

	fmt.Printf("model           : %s\n", res.Model)
	fmt.Printf("framework       : %s\n", res.Framework)
	fmt.Printf("decode steps    : %d\n", steps)
	fmt.Printf("mean TBT        : %.4f s\n", res.Mean())
	fmt.Printf("throughput      : %.1f tok/s\n", 1/res.Mean())
	fmt.Printf("cache hit rate  : %.1f%%\n", 100*res.Stats.CacheHitRate)
	fmt.Printf("expert ops      : %d on CPU, %d on GPU\n", res.Stats.CPUOps, res.Stats.GPUOps)
	fmt.Printf("transfers       : %d on-demand, %d prefetched\n",
		res.Stats.DemandTransfers, res.Stats.PrefetchTransfers)

	fmt.Println("\nexecution timeline (a=attention, L=experts, p=prefetch, m=miss insert):")
	fmt.Print(e.Gantt(100))
}
