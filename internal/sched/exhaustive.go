package sched

import (
	"fmt"
	"slices"

	"hybrimoe/internal/hw"
)

// Exhaustive is a reference scheduler that enumerates every CPU/GPU
// assignment (2^n) and keeps the best plan. Within an assignment it uses
// the same ordering rules as HybriMoE (CPU ascending load, GPU
// descending, transfers descending). It exists to quantify how close the
// greedy simulation gets to the assignment optimum, the ablation
// exp.AblationGreedyVsExhaustive reports as a greedy/optimal makespan
// ratio; it is exponential and refuses more than MaxExhaustiveTasks
// tasks.
type Exhaustive struct{}

// MaxExhaustiveTasks bounds the brute-force search.
const MaxExhaustiveTasks = 14

// NewExhaustive returns the brute-force reference scheduler.
func NewExhaustive() *Exhaustive { return &Exhaustive{} }

// Name implements Scheduler.
func (s *Exhaustive) Name() string { return "Exhaustive" }

// Plan implements Scheduler.
func (s *Exhaustive) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	if len(tasks) > MaxExhaustiveTasks {
		panic(fmt.Sprintf("sched: exhaustive search over %d tasks (max %d)", len(tasks), MaxExhaustiveTasks))
	}
	if len(tasks) == 0 {
		return &Plan{}
	}
	var best *Plan
	n := len(tasks)
	for mask := 0; mask < 1<<n; mask++ {
		plan := buildAssignment(tasks, p, res, func(i int) bool { return mask&(1<<i) != 0 })
		if plan == nil {
			continue
		}
		if best == nil || plan.Makespan < best.Makespan {
			best = plan
		}
	}
	return best
}

// buildAssignment constructs the plan where onCPU(i) tasks run on the
// CPU and the rest on the GPU (transferring uncached ones), with the
// canonical orderings. It returns nil for infeasible assignments (none
// here, but kept for clarity).
func buildAssignment(tasks []Task, p *hw.Platform, res Resources, onCPU func(int) bool) *Plan {
	plan := &Plan{}
	var cpuTasks, gpuCached, gpuMissed []Task
	for i, t := range tasks {
		switch {
		case onCPU(i):
			cpuTasks = append(cpuTasks, t)
		case t.Cached:
			gpuCached = append(gpuCached, t)
		default:
			gpuMissed = append(gpuMissed, t)
		}
	}
	slices.SortStableFunc(cpuTasks, loadAscending)
	slices.SortStableFunc(gpuCached, loadDescending)
	slices.SortStableFunc(gpuMissed, loadDescending)

	cpuBusy := res.CPUFree
	for i, t := range cpuTasks {
		end := cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: end})
		cpuBusy = end
	}

	linkBusy := res.linkAt(0)
	type ready struct {
		task Task
		at   float64
	}
	var queue []ready
	for _, t := range gpuCached {
		queue = append(queue, ready{task: t})
	}
	for _, t := range gpuMissed {
		end := linkBusy + p.Links[0].TransferTime(t.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: end})
		plan.Transferred = append(plan.Transferred, t.ID)
		linkBusy = end
		queue = append(queue, ready{task: t, at: end})
	}
	// GPU list-schedules: at each step run the ready highest-load task,
	// or wait for the earliest arrival.
	gpuBusy := res.gpuAt(0)
	for len(queue) > 0 {
		bestIdx := -1
		var bestStart float64
		for i, r := range queue {
			start := maxFloat(gpuBusy, r.at)
			if bestIdx == -1 || start < bestStart {
				bestIdx = i
				bestStart = start
			}
		}
		r := queue[bestIdx]
		queue = append(queue[:bestIdx], queue[bestIdx+1:]...)
		end := bestStart + p.GPUs[0].ExpertTime(r.task.Flops, r.task.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: r.task.ID, Kind: OpComputeGPU, Load: r.task.Load, Start: bestStart, End: end})
		gpuBusy = end
	}

	for _, op := range plan.Ops {
		if op.Kind != OpTransfer && op.End > plan.Makespan {
			plan.Makespan = op.End
		}
	}
	return plan
}

var _ Scheduler = (*Exhaustive)(nil)
