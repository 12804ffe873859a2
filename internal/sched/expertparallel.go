package sched

import "hybrimoe/internal/hw"

// ExpertParallel generalises the paper's greedy hybrid scheduler to
// N-GPU platforms: experts are placed across the GPUs by load ×
// residency. Cached experts run on the device holding their weights
// (moving them would pay a transfer the cache already spent); uncached
// experts start on the CPU queue and the per-device host links
// compete to pull the heaviest ones onto whichever GPU — priced by
// that device's own link model — would finish them earliest. The
// planning loop is HybriMoE's earliest-completion greedy simulation,
// with one compute timeline per GPU and one transfer timeline per
// link; on a single-GPU platform it is the HybriMoE greedy pass.
type ExpertParallel struct{ plan Plan }

// NewExpertParallel returns the multi-GPU placement scheduler.
func NewExpertParallel() *ExpertParallel { return &ExpertParallel{} }

// Name implements Scheduler.
func (s *ExpertParallel) Name() string { return "expert-parallel" }

// PlansDevices marks the scheduler device-aware (sched.DeviceAware).
func (s *ExpertParallel) PlansDevices() {}

// Plan implements Scheduler.
func (s *ExpertParallel) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	b := borrowBuffers()
	defer planPool.Put(b)
	cpu, gpu := b.mapStatic(tasks)
	greedy(&s.plan, b, cpu, gpu, p, res, max(p.NumGPUs(), 1))
	return &s.plan
}

// gpuEntry is a GPU-queue element: a task plus the time it becomes
// available on the GPU (0 for cached experts, transfer end for in-flight
// ones).
type gpuEntry struct {
	task    Task
	readyAt float64
	// viaTransfer marks entries produced by a committed transfer; the
	// CPU must not steal them (the weights are already in flight).
	viaTransfer bool
}

// Candidate operations in the greedy loop.
const (
	pickNone = iota
	pickCPU
	pickGPU
	pickLink
)

// greedy fills plan with the earliest-completion simulation over the
// CPU, GPUs 0..n-1 and their host links, following HybriMoE's priority
// rules: the CPU computes uncached experts lightest first and steals
// the lightest cached one when it has nothing else; each GPU computes
// its cached experts heaviest first; the links pull the heaviest
// uncached expert to the GPU that would have it compute-ready earliest.
// cpuQ and gpu are mapStatic's sorted queues, which it only reads.
func greedy(plan *Plan, b *planBuffers, cpuQ, gpu []Task, p *hw.Platform, res Resources, n int) {
	plan.reset()
	// Per-GPU queues: cached on that device, descending load (gpu's
	// order restricted to the device).
	for len(b.queues) < n {
		b.queues = append(b.queues, nil)
	}
	gpuQ := b.queues[:n]
	for d := range gpuQ {
		gpuQ[d] = gpuQ[d][:0]
	}
	for _, t := range gpu {
		d := t.Device.GPUIndex()
		if d >= n {
			// Residency on a device the platform does not carry is a
			// wiring bug upstream; fold onto GPU0 rather than panic so a
			// stale cache entry cannot take the serving loop down.
			d = 0
		}
		gpuQ[d] = append(gpuQ[d], gpuEntry{task: t})
	}

	cpuBusy, cpuFirst := res.CPUFree, true
	gpuBusy, linkBusy := b.gpuBusy[:0], b.linkBusy[:0]
	for d := 0; d < n; d++ {
		gpuBusy = append(gpuBusy, res.gpuAt(d))
		linkBusy = append(linkBusy, res.linkAt(d))
	}
	b.gpuBusy, b.linkBusy = gpuBusy, linkBusy

	const none = -1
	const eps = 1e-15
	for left := len(cpuQ) + len(gpu); left > 0; {
		// Each resource proposes its next op and the earliest-finishing
		// one commits. Ties prefer the CPU, then GPUs in device order,
		// then the transfer (the paper's walk-through keeps the CPU busy
		// on cheap uncached work).
		pick, fin := pickNone, 0.0

		// The CPU computes its queue head, or steals the globally
		// lowest-load cached expert not already in flight.
		stealDev, stealIdx := none, none
		if len(cpuQ) > 0 {
			t := cpuQ[0]
			pick, fin = pickCPU, cpuBusy+p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
		} else {
			for d, q := range gpuQ {
				// Queues are load-descending: scan from the back for the
				// device's lowest-load stealable entry.
				for i := len(q) - 1; i >= 0; i-- {
					if q[i].viaTransfer {
						continue
					}
					if stealDev == none || q[i].task.Load < gpuQ[stealDev][stealIdx].task.Load {
						stealDev, stealIdx = d, i
					}
					break
				}
			}
			if stealDev != none {
				t := gpuQ[stealDev][stealIdx].task
				pick, fin = pickCPU, cpuBusy+p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
			}
		}

		// Each GPU computes its earliest-startable queue entry; the queue
		// is load-ordered, so the first minimal-start entry wins ties.
		gpuDev, gpuIdx := none, none
		var gpuStart float64
		for d, q := range gpuQ {
			idx := none
			var start float64
			for i, e := range q {
				at := gpuBusy[d]
				if e.readyAt > at {
					at = e.readyAt
				}
				if idx == none || at < start-eps {
					idx, start = i, at
				}
			}
			if idx == none {
				continue
			}
			t := q[idx].task
			if f := start + p.GPUs[d].ExpertTime(t.Flops, t.Bytes); pick == pickNone || f < fin-eps {
				pick, fin = pickGPU, f
				gpuDev, gpuIdx, gpuStart = d, idx, start
			}
		}

		// A link transfers the highest-load uncached expert (the CPU
		// queue tail) to the device that would have it compute-ready
		// earliest, priced by that device's own link.
		xferDev := none
		if len(cpuQ) > 0 {
			t := cpuQ[len(cpuQ)-1]
			var ready, xferFin float64
			for d := 0; d < n; d++ {
				f := linkBusy[d] + p.Links[d].TransferTime(t.Bytes)
				r := f
				if gpuBusy[d] > r {
					r = gpuBusy[d]
				}
				if xferDev == none || r < ready-eps {
					xferDev, ready, xferFin = d, r, f
				}
			}
			if pick == pickNone || xferFin < fin-eps {
				pick, fin = pickLink, xferFin
			}
		}

		switch pick {
		case pickCPU:
			var t Task
			if len(cpuQ) > 0 {
				t, cpuQ = cpuQ[0], cpuQ[1:]
			} else {
				q := gpuQ[stealDev]
				t = q[stealIdx].task
				gpuQ[stealDev] = append(q[:stealIdx], q[stealIdx+1:]...)
			}
			plan.add(Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: fin})
			cpuBusy, cpuFirst = fin, false
			left--
		case pickGPU:
			q := gpuQ[gpuDev]
			t := q[gpuIdx].task
			gpuQ[gpuDev] = append(q[:gpuIdx], q[gpuIdx+1:]...)
			plan.add(Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load,
				Start: gpuStart, End: fin, Device: hw.GPUAt(gpuDev)})
			gpuBusy[gpuDev] = fin
			left--
		case pickLink:
			t := cpuQ[len(cpuQ)-1]
			cpuQ = cpuQ[:len(cpuQ)-1]
			plan.add(Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load,
				Start: linkBusy[xferDev], End: fin, Device: hw.GPUAt(xferDev)})
			plan.Transferred = append(plan.Transferred, t.ID)
			linkBusy[xferDev] = fin
			// The expert joins the target GPU's queue in descending load
			// order, available when its transfer lands.
			q := gpuQ[xferDev]
			pos := 0
			for pos < len(q) && q[pos].task.Load >= t.Load {
				pos++
			}
			q = append(q, gpuEntry{})
			copy(q[pos+1:], q[pos:])
			q[pos] = gpuEntry{task: t, readyAt: fin, viaTransfer: true}
			gpuQ[xferDev] = q
		default:
			panic("sched: no candidate operation (scheduler bug)")
		}
	}
}

var _ DeviceAware = (*ExpertParallel)(nil)
