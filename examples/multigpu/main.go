// Multi-GPU example: sharded expert serving across 1, 2 and 4 A6000s.
//
// The hardware model generalises the paper's {CPU, GPU, PCIe} triple to
// N GPUs, each with its own host link and its own expert-cache shard.
// Single-GPU schedulers (the paper's HybriMoE among them) are confined
// to GPU0 — they cannot express a plan that uses a second device — so
// scaling the topology does nothing for them. The registered
// expert-parallel scheduler places experts across GPUs by load ×
// residency: cached experts run on the device holding their weights,
// uncached ones ride whichever host link gets them compute-ready
// earliest. This example serves the same request stream through both
// schedulers on growing topologies and prints decode throughput and
// per-device utilisation side by side.
//
// Run with: go run ./examples/multigpu
package main

import (
	"fmt"
	"log"
	"strings"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

type runResult struct {
	decodeTokens int
	clockEnd     float64
	gpuBusy      []float64
	hitRate      float64
}

func serveOn(gpus int, schedName string, reqs []workload.Request) runResult {
	fw := engine.HybriMoEFramework()
	fw.Sched = schedName
	e, err := engine.New(moe.DeepSeek(), hw.MultiA6000Platform(gpus), fw,
		engine.WithCacheRatio(0.25), engine.WithSeed(2025))
	if err != nil {
		log.Fatal(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(3))
	s.Submit(reqs...)
	r := runResult{gpuBusy: make([]float64, gpus)}
	s.Run(func(ev engine.StepEvent) {
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		for d, busy := range ev.GPUBusyByDevice {
			r.gpuBusy[d] += busy
		}
		if ev.Phase == engine.PhaseDecode {
			r.decodeTokens += ev.Tokens
		}
	})
	r.hitRate = s.Metrics().HitRate()
	return r
}

func main() {
	stream := workload.NewStream(2025, workload.AllDatasets()...)
	reqs := stream.NextN(8)
	workload.CapDecode(reqs, 12)

	fmt.Println("sharded expert serving: DeepSeek, 25% cache per GPU, 8 requests")
	fmt.Printf("%-5s %-16s %-13s %-9s %s\n", "gpus", "scheduler", "decode-tok/s", "hit-rate", "per-GPU-util")
	for _, gpus := range []int{1, 2, 4} {
		for _, schedName := range []string{"hybrimoe", "expert-parallel"} {
			r := serveOn(gpus, schedName, reqs)
			util := make([]string, gpus)
			for d, busy := range r.gpuBusy {
				util[d] = fmt.Sprintf("%.0f%%", 100*busy/r.clockEnd)
			}
			fmt.Printf("%-5d %-16s %-13.1f %-9.3f %s\n",
				gpus, schedName, float64(r.decodeTokens)/r.clockEnd, r.hitRate,
				strings.Join(util, "/"))
		}
	}
	fmt.Println("\nhybrimoe is a single-GPU planner: extra devices sit idle.")
	fmt.Println("expert-parallel spreads residency and compute, so throughput")
	fmt.Println("scales with the topology while TBT falls.")
}
