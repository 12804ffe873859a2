// Package sched implements the paper's core contribution: the hybrid
// CPU-GPU intra-layer scheduling strategy (§IV-B), alongside the three
// baseline strategies it is evaluated against (llama.cpp-style static
// layer mapping, AdapMoE-style GPU-centric loading, kTransformers-style
// static hybrid mapping).
//
// A scheduler receives the activated experts of one MoE layer as Tasks —
// each with a token load, FLOP count, weight footprint and residency
// flag — plus the platform cost models and the current occupancy of the
// three resource timelines, and produces a Plan: a set of timed
// operations (CPU compute, GPU compute, PCIe transfer) whose makespan is
// the layer's routed-expert latency.
package sched

import (
	"fmt"
	"sort"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
)

// Task is one routed expert's work for the current layer.
type Task struct {
	ID moe.ExpertID
	// Load is the token count routed to this expert (1 at decode).
	Load int
	// Flops is the total compute for Load tokens.
	Flops float64
	// Bytes is the INT4 weight footprint (the transfer size on miss).
	Bytes int64
	// Cached reports GPU residency at scheduling time.
	Cached bool
	// Device is the GPU holding the cached copy. The zero value is GPU0,
	// so single-GPU call sites never set it. Meaningful only when Cached.
	Device hw.Device
}

// OpKind classifies plan operations.
type OpKind int

// Operation kinds.
const (
	OpComputeCPU OpKind = iota
	OpComputeGPU
	OpTransfer
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpComputeCPU:
		return "cpu"
	case OpComputeGPU:
		return "gpu"
	case OpTransfer:
		return "xfer"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one scheduled operation with times relative to the layer start.
type Op struct {
	Expert moe.ExpertID
	Kind   OpKind
	Load   int
	Start  float64
	End    float64
	// Device is the target GPU of an OpComputeGPU, or the destination
	// GPU (and therefore the host link) of an OpTransfer. The zero value
	// is GPU0, so single-GPU schedulers never set it; it is ignored for
	// OpComputeCPU.
	Device hw.Device
}

// Plan is a complete schedule for one layer's routed experts.
type Plan struct {
	Ops []Op
	// Makespan is when the last routed-expert computation finishes,
	// relative to the layer start.
	Makespan float64
	// Transferred lists experts moved to the GPU by this plan (they
	// should be inserted into the expert cache on completion).
	Transferred []moe.ExpertID
}

// Resources carries the occupancy of the device timelines at the moment
// the layer starts, as offsets ≥ 0 relative to the layer start. GPUFree
// is typically positive (attention + shared experts run first); LinkFree
// is positive when a prefetch from an earlier layer still occupies PCIe.
// On multi-GPU platforms GPUFrees/LinkFrees carry every device's
// frontier; the scalar GPUFree/LinkFree remain GPU0's, so single-GPU
// schedulers (and their callers) are untouched by the N-device model.
type Resources struct {
	CPUFree  float64
	GPUFree  float64
	LinkFree float64
	// GPUFrees and LinkFrees, when non-nil, carry the per-device
	// frontiers; index 0 takes precedence over the scalars. Nil means a
	// single device described by the scalars.
	GPUFrees  []float64
	LinkFrees []float64
}

// GPUFreeAt reports device d's occupancy offset: the per-device vector
// when present, the scalar for GPU0 otherwise, and 0 for devices the
// caller never mentioned.
func (r Resources) GPUFreeAt(d hw.Device) float64 {
	i := d.GPUIndex()
	if r.GPUFrees != nil {
		if i < len(r.GPUFrees) {
			return r.GPUFrees[i]
		}
		return 0
	}
	if i == 0 {
		return r.GPUFree
	}
	return 0
}

// LinkFreeAt reports the occupancy offset of device d's host link, with
// GPUFreeAt's fallback rules.
func (r Resources) LinkFreeAt(d hw.Device) float64 {
	i := d.GPUIndex()
	if r.LinkFrees != nil {
		if i < len(r.LinkFrees) {
			return r.LinkFrees[i]
		}
		return 0
	}
	if i == 0 {
		return r.LinkFree
	}
	return 0
}

func (r Resources) validate() {
	if r.CPUFree < 0 || r.GPUFree < 0 || r.LinkFree < 0 {
		panic(fmt.Sprintf("sched: negative resource offsets %+v", r))
	}
	for _, v := range r.GPUFrees {
		if v < 0 {
			panic(fmt.Sprintf("sched: negative GPU resource offsets %+v", r))
		}
	}
	for _, v := range r.LinkFrees {
		if v < 0 {
			panic(fmt.Sprintf("sched: negative link resource offsets %+v", r))
		}
	}
}

// Scheduler plans one layer.
type Scheduler interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Plan schedules the tasks. Implementations must not retain tasks.
	Plan(tasks []Task, p *hw.Platform, res Resources) *Plan
}

// DeviceAware marks schedulers that understand multi-GPU device
// identity: they read Task.Device and the per-device Resources vectors
// and emit ops targeting any GPU. Schedulers without the marker are
// single-GPU planners — on an N-GPU platform the engine confines their
// residency, placement and transfers to GPU0, since a plan that runs a
// GPU1-resident expert on GPU0 without a transfer is not physical.
type DeviceAware interface {
	Scheduler
	// PlansDevices is a marker; implementations need no behaviour.
	PlansDevices()
}

// IsDeviceAware reports whether s opts into multi-GPU planning.
func IsDeviceAware(s Scheduler) bool {
	_, ok := s.(DeviceAware)
	return ok
}

// Validate checks plan invariants against the task list: every task
// computed exactly once, transfers precede their GPU compute on the
// same device, cached tasks only GPU-compute on their residency device,
// and ops on the same resource (the CPU, each GPU, each host link)
// never overlap. Tests and the engine's debug mode use it; it returns
// nil for a well-formed plan.
func (pl *Plan) Validate(tasks []Task, res Resources) error {
	type xfer struct {
		end float64
		dev hw.Device
	}
	computed := make(map[moe.ExpertID]int)
	transferred := make(map[moe.ExpertID]xfer)
	var cpuOps []Op
	gpuOps := make(map[hw.Device][]Op)
	xferOps := make(map[hw.Device][]Op)
	for _, op := range pl.Ops {
		switch op.Kind {
		case OpComputeCPU:
			computed[op.Expert]++
			cpuOps = append(cpuOps, op)
		case OpComputeGPU:
			computed[op.Expert]++
			gpuOps[op.Device] = append(gpuOps[op.Device], op)
		case OpTransfer:
			if _, dup := transferred[op.Expert]; dup {
				return fmt.Errorf("sched: %v transferred twice", op.Expert)
			}
			transferred[op.Expert] = xfer{end: op.End, dev: op.Device}
			xferOps[op.Device] = append(xferOps[op.Device], op)
		}
		if op.End < op.Start {
			return fmt.Errorf("sched: op %v ends before it starts", op)
		}
	}
	for _, task := range tasks {
		if computed[task.ID] != 1 {
			return fmt.Errorf("sched: task %v computed %d times", task.ID, computed[task.ID])
		}
	}
	if len(computed) != len(tasks) {
		return fmt.Errorf("sched: %d computed experts for %d tasks", len(computed), len(tasks))
	}
	byID := make(map[moe.ExpertID]Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	for dev, ops := range gpuOps {
		for _, op := range ops {
			task, ok := byID[op.Expert]
			if !ok {
				return fmt.Errorf("sched: GPU op for unknown task %v", op.Expert)
			}
			if task.Cached {
				if dev != task.Device {
					return fmt.Errorf("sched: %v cached on %v computed on %v without transfer",
						op.Expert, task.Device, dev)
				}
				continue
			}
			x, ok := transferred[op.Expert]
			if !ok {
				return fmt.Errorf("sched: uncached %v computed on GPU without transfer", op.Expert)
			}
			if x.dev != dev {
				return fmt.Errorf("sched: %v transferred to %v but computed on %v", op.Expert, x.dev, dev)
			}
			if op.Start < x.end-1e-9 {
				return fmt.Errorf("sched: %v GPU compute at %v before transfer end %v", op.Expert, op.Start, x.end)
			}
		}
	}
	for _, ops := range xferOps {
		for _, op := range ops {
			if t := byID[op.Expert]; t.Cached {
				return fmt.Errorf("sched: cached %v transferred", op.Expert)
			}
		}
	}
	checkSerial := func(ops []Op, free float64, what string) error {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
		prevEnd := free
		for _, op := range ops {
			if op.Start < prevEnd-1e-9 {
				return fmt.Errorf("sched: %s ops overlap at %v (prev end %v)", what, op.Start, prevEnd)
			}
			prevEnd = op.End
		}
		return nil
	}
	if err := checkSerial(cpuOps, res.CPUFree, "CPU"); err != nil {
		return err
	}
	for dev, ops := range gpuOps {
		if err := checkSerial(ops, res.GPUFreeAt(dev), dev.String()); err != nil {
			return err
		}
	}
	for dev, ops := range xferOps {
		if err := checkSerial(ops, res.LinkFreeAt(dev), "PCIe:"+dev.String()); err != nil {
			return err
		}
	}
	var maxEnd float64
	for _, op := range pl.Ops {
		if op.Kind != OpTransfer && op.End > maxEnd {
			maxEnd = op.End
		}
	}
	if diff := pl.Makespan - maxEnd; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("sched: makespan %v != last compute end %v", pl.Makespan, maxEnd)
	}
	return nil
}

// Residency reports where an expert's weights are cached, if anywhere.
// Multi-GPU engines hand schedulers one of these so placement can
// follow residency to the owning device.
type Residency func(moe.ExpertID) (hw.Device, bool)

// TasksFromLoads builds the task list for one layer from per-expert
// token loads, using cfg for sizing and isCached for residency. Experts
// with zero load are skipped. Cached experts are attributed to GPU0 —
// the single-GPU convention; use TasksFromLoadsOn when residency is
// spread across devices.
func TasksFromLoads(cfg *moe.Config, layer int, loads []int, isCached func(moe.ExpertID) bool) []Task {
	return TasksFromLoadsOn(cfg, layer, loads, func(id moe.ExpertID) (hw.Device, bool) {
		return hw.GPU, isCached(id)
	})
}

// TasksFromLoadsOn builds the task list with per-device residency:
// cached tasks carry the device holding their copy.
func TasksFromLoadsOn(cfg *moe.Config, layer int, loads []int, residentOn Residency) []Task {
	return TasksFromLoadsOnInto(nil, cfg, layer, loads, residentOn)
}

// TasksFromLoadsOnInto is TasksFromLoadsOn appending to dst[:0], for
// callers that reuse one task buffer across layers (schedulers never
// retain their tasks).
func TasksFromLoadsOnInto(dst []Task, cfg *moe.Config, layer int, loads []int, residentOn Residency) []Task {
	tasks := dst[:0]
	for e, load := range loads {
		if load == 0 {
			continue
		}
		id := moe.ExpertID{Layer: layer, Index: e}
		dev, cached := residentOn(id)
		if !cached {
			dev = hw.GPU
		}
		tasks = append(tasks, Task{
			ID:     id,
			Load:   load,
			Flops:  cfg.ExpertFlops(load),
			Bytes:  cfg.ExpertBytes(),
			Cached: cached,
			Device: dev,
		})
	}
	return tasks
}
