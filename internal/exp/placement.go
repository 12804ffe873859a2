package exp

import (
	"fmt"
	"strings"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// placementRun aggregates one topology × scheduler × cache-ratio
// serving run.
type placementRun struct {
	engine.Tally
	hitRate float64
	// gpuBusy sums each device's StepEvent.GPUBusyByDevice across the
	// run. Those are frontier advances, not busy seconds: the sum
	// telescopes to the device's last frontier, so every GPU the run
	// uses reads about the makespan. Under QuickParams the 1-GPU
	// hybrimoe run at 25% cache reads 100% here, while its recorded GPU
	// timeline is busy for 21.8% of its 2.348 s makespan.
	gpuBusy []float64
}

// utilisation renders each GPU's summed frontier advance over the
// makespan as "u0/u1/…": which devices the run reaches, not how busy
// they are.
func (r *placementRun) utilisation() string {
	if r.Makespan == 0 {
		return "-"
	}
	parts := make([]string, len(r.gpuBusy))
	for d, busy := range r.gpuBusy {
		parts[d] = fmt.Sprintf("%.0f%%", 100*busy/r.Makespan)
	}
	return strings.Join(parts, "/")
}

// drivePlacement serves reqs through the HybriMoE stack planning with
// the named intra-layer scheduler on an n-GPU A6000 platform.
func drivePlacement(p Params, gpus int, schedName string, ratio float64, reqs []workload.Request) placementRun {
	fw := engine.HybriMoEFramework()
	fw.Sched = schedName
	e, err := engine.New(moe.DeepSeek(), hw.MultiA6000Platform(gpus), fw,
		engine.WithCacheRatio(ratio), engine.WithSeed(p.Seed))
	if err != nil {
		panic(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(3))
	s.Submit(reqs...)

	r := placementRun{gpuBusy: make([]float64, gpus)}
	s.Run(func(ev engine.StepEvent) {
		r.Add(ev)
		for d, busy := range ev.GPUBusyByDevice {
			r.gpuBusy[d] += busy
		}
	})
	r.hitRate = e.Caches().HitRate()
	return r
}

// PlacementTopologies are the GPU counts the placement study sweeps.
var PlacementTopologies = []int{1, 2, 4}

// placementStudy sweeps GPU topologies × intra-layer schedulers ×
// cache ratios on one fixed mixed-corpus stream served by the HybriMoE
// stack, reporting decode throughput, TBT percentiles, the aggregate
// expert-cache hit rate and which devices each run reaches. The
// single-GPU hybrimoe row is the pre-refactor baseline; expert-parallel
// on the dual/quad presets should beat it on decode throughput — the
// per-device caches double (quadruple) total residency, and cached
// experts execute on their owning GPUs in parallel. There is one cell
// per grid point, all serving one shared stream.
func placementStudy(p Params, requests int) *report.Table {
	reqs := studyRequests(p, requests, 0)
	var cells []Cell
	for _, gpus := range PlacementTopologies {
		for _, schedName := range []string{"hybrimoe", "expert-parallel"} {
			for _, ratio := range []float64{0.25, 0.50} {
				cells = append(cells, func() []Row {
					r := drivePlacement(p, gpus, schedName, ratio, reqs)
					tbt := r.TBT.Stats()
					return []Row{{gpus, schedName, ratio, r.DecodeThroughput(),
						tbt.P50, tbt.P95, r.hitRate, r.utilisation()}}
				})
			}
		}
	}
	return tableFromCells("Placement study: GPU topology × scheduler × cache ratio (HybriMoE stack)",
		[]string{"gpus", "sched", "cache", "decode-tok/s", "p50-TBT(s)", "p95-TBT(s)", "hit-rate", "per-GPU-util"},
		runCells(cells))
}
