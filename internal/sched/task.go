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
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

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

// reset empties the plan, keeping its storage for the next call.
func (pl *Plan) reset() {
	pl.Ops, pl.Transferred, pl.Makespan = pl.Ops[:0], pl.Transferred[:0], 0
}

// add appends op, extending the makespan over compute ops.
func (pl *Plan) add(op Op) {
	pl.Ops = append(pl.Ops, op)
	if op.Kind != OpTransfer && op.End > pl.Makespan {
		pl.Makespan = op.End
	}
}

// planBuffers is the queue and sort scratch one Plan call borrows from
// planPool. A scheduler owns only the plan it returns: grids and fleets
// keep hundreds of schedulers alive, and most sit idle. Every buffer is
// emptied before use, so schedulers sharing the pool never see each
// other's data.
type planBuffers struct {
	uncached, cached, ordered []Task
	queues                    [][]gpuEntry
	gpuBusy, linkBusy         []float64
}

var planPool = sync.Pool{New: func() any { return new(planBuffers) }}

// borrowBuffers takes plan scratch from the pool; the caller puts it
// back when its plan is built.
func borrowBuffers() *planBuffers { return planPool.Get().(*planBuffers) }

// split partitions tasks, in order, into the uncached and cached
// buffers.
func (b *planBuffers) split(tasks []Task) (uncached, cached []Task) {
	uncached, cached = b.uncached[:0], b.cached[:0]
	for _, t := range tasks {
		if t.Cached {
			cached = append(cached, t)
		} else {
			uncached = append(uncached, t)
		}
	}
	b.uncached, b.cached = uncached, cached
	return uncached, cached
}

func loadAscending(a, b Task) int  { return cmp.Compare(a.Load, b.Load) }
func loadDescending(a, b Task) int { return cmp.Compare(b.Load, a.Load) }

// Resources carries the occupancy of the device timelines at the moment
// the layer starts, as offsets ≥ 0 relative to the layer start. GPUFree
// and LinkFree hold one frontier per GPU and per host link, indexed by
// device; a device past the end of a slice is free, so Resources{} is an
// idle platform. GPU0's frontier is typically positive (attention and
// the shared experts run first); a link's is positive when a prefetch
// from an earlier layer still occupies it. Single-GPU planners read
// index 0.
type Resources struct {
	CPUFree  float64
	GPUFree  []float64
	LinkFree []float64
}

// gpuAt reports GPU d's frontier.
func (r Resources) gpuAt(d int) float64 { return frontier(r.GPUFree, d) }

// linkAt reports the frontier of GPU d's host link.
func (r Resources) linkAt(d int) float64 { return frontier(r.LinkFree, d) }

// frontier reads entry d of a per-device vector: a device past its end
// is free.
func frontier(v []float64, d int) float64 {
	if d < len(v) {
		return v[d]
	}
	return 0
}

func (r Resources) validate() {
	if r.CPUFree < 0 || slices.ContainsFunc(r.GPUFree, negative) || slices.ContainsFunc(r.LinkFree, negative) {
		panic(fmt.Sprintf("sched: negative resource offsets %+v", r))
	}
}

func negative(v float64) bool { return v < 0 }

// Scheduler plans one layer. An instance serves one goroutine at a
// time, as each engine owns its own.
type Scheduler interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Plan schedules the tasks. Implementations must not retain tasks.
	// The returned plan belongs to the scheduler and stays valid until
	// its next Plan call, so a caller reads it before planning again.
	Plan(tasks []Task, p *hw.Platform, res Resources) *Plan
}

// DeviceAware marks schedulers that understand multi-GPU device
// identity: they read Task.Device and every entry of the Resources
// vectors, and emit ops targeting any GPU. Schedulers without the
// marker are single-GPU planners — on an N-GPU platform the engine
// confines their residency, placement and transfers to GPU0, since a
// plan that runs a GPU1-resident expert on GPU0 without a transfer is
// not physical.
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
		if err := checkSerial(ops, res.gpuAt(dev.GPUIndex()), dev.String()); err != nil {
			return err
		}
	}
	for dev, ops := range xferOps {
		if err := checkSerial(ops, res.linkAt(dev.GPUIndex()), "PCIe:"+dev.String()); err != nil {
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
// token loads, appending to dst[:0] so callers can reuse one buffer
// across layers (schedulers never retain their tasks). cfg sizes each
// task, and residentOn says where its weights are cached: a cached task
// carries that device, an uncached one GPU0. Experts with zero load are
// skipped.
func TasksFromLoads(dst []Task, cfg *moe.Config, layer int, loads []int, residentOn Residency) []Task {
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
