package sched

import "hybrimoe/internal/hw"

// HybriMoE is the paper's dynamic intra-layer scheduler (§IV-B). It
// turns the NP-hard mapping problem into a greedy simulation constrained
// by three priority rules:
//
//   - GPU priority: compute cached experts, highest load first;
//   - CPU priority: compute uncached experts, lowest load first; steal
//     low-load cached experts from the GPU queue when otherwise idle;
//   - transfer priority: move the highest-load uncached experts to the
//     GPU first.
//
// The planning loop iteratively fills the CPU, GPU and PCIe timelines:
// at each step it evaluates the next operation each timeline could run,
// commits the one that completes earliest (ties prefer CPU, then GPU,
// then PCIe), and — when a transfer commits — moves the expert into the
// GPU queue in descending load order with availability at the transfer's
// end, exactly the simulation the paper describes. The loop is
// ExpertParallel's, run for GPU0 alone.
type HybriMoE struct{ plan Plan }

// NewHybriMoE returns the dynamic hybrid scheduler.
func NewHybriMoE() *HybriMoE { return &HybriMoE{} }

// Name implements Scheduler.
func (s *HybriMoE) Name() string { return "HybriMoE" }

// Plan implements Scheduler. It runs the greedy timeline-filling
// simulation and, because the paper's simulation phase "evaluates
// scheduling strategies" before committing, also simulates the static
// cached→GPU / uncached→CPU mapping and returns whichever plan finishes
// first. The greedy pass wins whenever rebalancing helps; the fallback
// guarantees HybriMoE never does worse than the kTransformers mapping.
// Both run from one split and sort of the tasks: the greedy pass only
// reads the queues, and the fallback reuses them as they are.
func (s *HybriMoE) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	b := borrowBuffers()
	defer planPool.Put(b)
	cpu, gpu := b.mapStatic(tasks)
	greedy(&s.plan, b, cpu, gpu, p, res, 1)

	// The fallback's ops are built only when it finishes strictly first.
	var static float64
	if len(cpu) > 0 {
		static = runCPU(nil, cpu, p, res.CPUFree)
	}
	if len(gpu) > 0 {
		static = max(static, runGPU(nil, gpu, p, res.gpuAt(0)))
	}
	if static < s.plan.Makespan {
		s.plan.reset()
		runCPU(&s.plan, cpu, p, res.CPUFree)
		runGPU(&s.plan, gpu, p, res.gpuAt(0))
	}
	return &s.plan
}

var _ Scheduler = (*HybriMoE)(nil)
