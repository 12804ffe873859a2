package sched

import (
	"slices"

	"hybrimoe/internal/hw"
)

// KTransStatic reproduces the kTransformers scheduling strategy the
// paper uses as its main baseline: a fixed mapping where GPU-resident
// (cached/pinned) experts run on the GPU and everything else runs on the
// CPU. CPU and GPU proceed in parallel but there is no load balancing,
// no work stealing, and no on-demand transfer — exactly the imbalance of
// Figure 1(b).
type KTransStatic struct{ plan Plan }

// NewKTransStatic returns the kTransformers-style baseline.
func NewKTransStatic() *KTransStatic { return &KTransStatic{} }

// Name implements Scheduler.
func (s *KTransStatic) Name() string { return "KTransformers" }

// Plan implements Scheduler.
func (s *KTransStatic) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	b := borrowBuffers()
	defer planPool.Put(b)
	s.plan.reset()
	// Order only affects intra-layer progress, not the makespan.
	cpu, gpu := b.mapStatic(tasks)
	runGPU(&s.plan, gpu, p, res.gpuAt(0))
	runCPU(&s.plan, cpu, p, res.CPUFree)
	return &s.plan
}

// mapStatic is kTransformers' fixed mapping on the borrowed buffers:
// uncached tasks for the CPU, lowest load first, and cached ones for
// GPU0, highest load first.
func (b *planBuffers) mapStatic(tasks []Task) (cpu, gpu []Task) {
	cpu, gpu = b.split(tasks)
	slices.SortStableFunc(cpu, loadAscending)
	slices.SortStableFunc(gpu, loadDescending)
	return cpu, gpu
}

// runCPU computes tasks back to back on the CPU from at, the first one
// paying the warm-up, and returns when the CPU is free again. A nil plan
// only simulates.
func runCPU(plan *Plan, tasks []Task, p *hw.Platform, at float64) float64 {
	for i, t := range tasks {
		end := at + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		if plan != nil {
			plan.add(Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: at, End: end})
		}
		at = end
	}
	return at
}

// runGPU is runCPU on GPU0.
func runGPU(plan *Plan, tasks []Task, p *hw.Platform, at float64) float64 {
	for _, t := range tasks {
		end := at + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
		if plan != nil {
			plan.add(Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: at, End: end})
		}
		at = end
	}
	return at
}

// GPUCentric reproduces the AdapMoE-style strategy: every expert runs on
// the GPU; cache misses stall on on-demand PCIe loads (mitigated by
// whatever prefetching and caching the engine layers on top). The CPU
// does no expert computation.
type GPUCentric struct{ plan Plan }

// NewGPUCentric returns the AdapMoE-style baseline.
func NewGPUCentric() *GPUCentric { return &GPUCentric{} }

// Name implements Scheduler.
func (s *GPUCentric) Name() string { return "AdapMoE" }

// Plan implements Scheduler.
func (s *GPUCentric) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	b := borrowBuffers()
	defer planPool.Put(b)
	s.plan.reset()
	missed, cached := b.split(tasks)
	// Highest-load misses transfer first so the GPU's biggest work
	// arrives earliest.
	slices.SortStableFunc(missed, loadDescending)
	linkBusy := res.linkAt(0)
	for _, t := range missed {
		end := linkBusy + p.Links[0].TransferTime(t.Bytes)
		s.plan.add(Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: end})
		s.plan.Transferred = append(s.plan.Transferred, t.ID)
		linkBusy = end
	}
	// The GPU runs in ready order: the cached experts, which are ready
	// at once, lowest load first with ties in reverse task order, then
	// each miss as its transfer lands.
	slices.SortStableFunc(cached, loadDescending)
	slices.Reverse(cached)
	gpuBusy := runGPU(&s.plan, cached, p, res.gpuAt(0))
	for i, t := range missed {
		start := max(gpuBusy, s.plan.Ops[i].End)
		gpuBusy = start + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
		s.plan.add(Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: start, End: gpuBusy})
	}
	return &s.plan
}

// StaticSplit reproduces llama.cpp's strategy: whole layers are mapped
// to the GPU or the CPU ahead of time (the -ngl option). A GPU layer
// executes all its experts on the GPU (its weights are resident by
// construction); a CPU layer executes everything on the CPU. There is no
// intra-layer parallelism across devices at all.
type StaticSplit struct {
	// GPULayer reports whether a layer lives on the GPU.
	GPULayer func(layer int) bool

	plan Plan
}

// NewStaticSplit returns the llama.cpp-style baseline with the given
// layer placement.
func NewStaticSplit(gpuLayer func(int) bool) *StaticSplit {
	return &StaticSplit{GPULayer: gpuLayer}
}

// Name implements Scheduler.
func (s *StaticSplit) Name() string { return "llama.cpp" }

// Plan implements Scheduler.
func (s *StaticSplit) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	s.plan.reset()
	if len(tasks) == 0 {
		return &s.plan
	}
	b := borrowBuffers()
	defer planPool.Put(b)
	ordered := append(b.ordered[:0], tasks...)
	b.ordered = ordered
	slices.SortStableFunc(ordered, loadDescending)
	if s.GPULayer != nil && s.GPULayer(tasks[0].ID.Layer) {
		runGPU(&s.plan, ordered, p, res.gpuAt(0))
	} else {
		runCPU(&s.plan, ordered, p, res.CPUFree)
	}
	return &s.plan
}

var (
	_ Scheduler = (*KTransStatic)(nil)
	_ Scheduler = (*GPUCentric)(nil)
	_ Scheduler = (*StaticSplit)(nil)
)
