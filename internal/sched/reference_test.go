package sched

import (
	"slices"
	"sort"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

// The planners below are test-only copies of the schedulers as they were
// before plans became scheduler-owned and HybriMoE's greedy pass merged
// into ExpertParallel's loop. Every registered scheduler must reproduce
// them op for op.

type refEntry struct {
	task        Task
	readyAt     float64
	viaTransfer bool
}

func refHybriMoE(tasks []Task, p *hw.Platform, res Resources) *Plan {
	greedy := refHybriMoEGreedy(tasks, p, res)
	static := refBuildAssignment(tasks, p, res, func(i int) bool { return !tasks[i].Cached })
	if static != nil && static.Makespan < greedy.Makespan {
		return static
	}
	return greedy
}

func refHybriMoEGreedy(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	if len(tasks) == 0 {
		return plan
	}
	var cpuQ []Task
	var gpuQ []refEntry
	for _, t := range tasks {
		if t.Cached {
			gpuQ = append(gpuQ, refEntry{task: t})
		} else {
			cpuQ = append(cpuQ, t)
		}
	}
	sort.SliceStable(cpuQ, func(i, j int) bool { return cpuQ[i].Load < cpuQ[j].Load })
	sort.SliceStable(gpuQ, func(i, j int) bool { return gpuQ[i].task.Load > gpuQ[j].task.Load })

	cpuBusy, gpuBusy, linkBusy := res.CPUFree, res.gpuAt(0), res.linkAt(0)
	cpuFirst := true
	appendOp := func(op Op) {
		plan.Ops = append(plan.Ops, op)
		if op.Kind != OpTransfer && op.End > plan.Makespan {
			plan.Makespan = op.End
		}
	}
	for len(cpuQ) > 0 || len(gpuQ) > 0 {
		const none = -1
		cpuTask := none
		cpuSteal := none
		var cpuFin float64
		if len(cpuQ) > 0 {
			cpuTask = 0
			t := cpuQ[0]
			cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
		} else {
			for i := len(gpuQ) - 1; i >= 0; i-- {
				if !gpuQ[i].viaTransfer {
					cpuSteal = i
					t := gpuQ[i].task
					cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
					break
				}
			}
		}
		gpuIdx := none
		var gpuStart, gpuFin float64
		for i, e := range gpuQ {
			start := gpuBusy
			if e.readyAt > start {
				start = e.readyAt
			}
			if gpuIdx == none || start < gpuStart-1e-15 {
				gpuIdx = i
				gpuStart = start
				gpuFin = start + p.GPUs[0].ExpertTime(e.task.Flops, e.task.Bytes)
			}
		}
		xferIdx := none
		var xferFin float64
		if len(cpuQ) > 0 {
			xferIdx = len(cpuQ) - 1
			xferFin = linkBusy + p.Links[0].TransferTime(cpuQ[xferIdx].Bytes)
		}
		const eps = 1e-15
		best := none
		var bestFin float64
		consider := func(kind int, fin float64, ok bool) {
			if !ok {
				return
			}
			if best == none || fin < bestFin-eps {
				best = kind
				bestFin = fin
			}
		}
		consider(0, cpuFin, cpuTask != none || cpuSteal != none)
		consider(1, gpuFin, gpuIdx != none)
		consider(2, xferFin, xferIdx != none)
		switch best {
		case 0:
			var t Task
			if cpuTask != none {
				t = cpuQ[0]
				cpuQ = cpuQ[1:]
			} else {
				t = gpuQ[cpuSteal].task
				gpuQ = append(gpuQ[:cpuSteal], gpuQ[cpuSteal+1:]...)
			}
			appendOp(Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: cpuFin})
			cpuBusy = cpuFin
			cpuFirst = false
		case 1:
			e := gpuQ[gpuIdx]
			gpuQ = append(gpuQ[:gpuIdx], gpuQ[gpuIdx+1:]...)
			appendOp(Op{Expert: e.task.ID, Kind: OpComputeGPU, Load: e.task.Load, Start: gpuStart, End: gpuFin})
			gpuBusy = gpuFin
		case 2:
			t := cpuQ[xferIdx]
			cpuQ = cpuQ[:xferIdx]
			appendOp(Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: xferFin})
			linkBusy = xferFin
			plan.Transferred = append(plan.Transferred, t.ID)
			entry := refEntry{task: t, readyAt: xferFin, viaTransfer: true}
			pos := sort.Search(len(gpuQ), func(i int) bool { return gpuQ[i].task.Load < t.Load })
			gpuQ = append(gpuQ, refEntry{})
			copy(gpuQ[pos+1:], gpuQ[pos:])
			gpuQ[pos] = entry
		default:
			panic("reference: no candidate operation")
		}
	}
	return plan
}

func refBuildAssignment(tasks []Task, p *hw.Platform, res Resources, onCPU func(int) bool) *Plan {
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
	sort.SliceStable(cpuTasks, func(i, j int) bool { return cpuTasks[i].Load < cpuTasks[j].Load })
	sort.SliceStable(gpuCached, func(i, j int) bool { return gpuCached[i].Load > gpuCached[j].Load })
	sort.SliceStable(gpuMissed, func(i, j int) bool { return gpuMissed[i].Load > gpuMissed[j].Load })

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

func refExhaustive(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	if len(tasks) == 0 {
		return &Plan{}
	}
	var best *Plan
	for mask := 0; mask < 1<<len(tasks); mask++ {
		plan := refBuildAssignment(tasks, p, res, func(i int) bool { return mask&(1<<i) != 0 })
		if best == nil || plan.Makespan < best.Makespan {
			best = plan
		}
	}
	return best
}

func refExpertParallel(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	if len(tasks) == 0 {
		return plan
	}
	n := p.NumGPUs()
	if n < 1 {
		n = 1
	}
	var cpuQ []Task
	gpuQ := make([][]refEntry, n)
	for _, t := range tasks {
		if t.Cached {
			d := t.Device.GPUIndex()
			if d >= n {
				d = 0
			}
			gpuQ[d] = append(gpuQ[d], refEntry{task: t})
		} else {
			cpuQ = append(cpuQ, t)
		}
	}
	sort.SliceStable(cpuQ, func(i, j int) bool { return cpuQ[i].Load < cpuQ[j].Load })
	for d := range gpuQ {
		q := gpuQ[d]
		sort.SliceStable(q, func(i, j int) bool { return q[i].task.Load > q[j].task.Load })
	}
	cpuBusy := res.CPUFree
	gpuBusy := make([]float64, n)
	linkBusy := make([]float64, n)
	for d := 0; d < n; d++ {
		gpuBusy[d] = res.gpuAt(d)
		linkBusy[d] = res.linkAt(d)
	}
	cpuFirst := true
	appendOp := func(op Op) {
		plan.Ops = append(plan.Ops, op)
		if op.Kind != OpTransfer && op.End > plan.Makespan {
			plan.Makespan = op.End
		}
	}
	remaining := func() bool {
		if len(cpuQ) > 0 {
			return true
		}
		for _, q := range gpuQ {
			if len(q) > 0 {
				return true
			}
		}
		return false
	}
	const none = -1
	const eps = 1e-15
	for remaining() {
		cpuHead := len(cpuQ) > 0
		stealDev, stealIdx := none, none
		var cpuFin float64
		if cpuHead {
			t := cpuQ[0]
			cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
		} else {
			for d, q := range gpuQ {
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
				cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
			}
		}
		gpuIdx := make([]int, n)
		gpuStart := make([]float64, n)
		gpuFin := make([]float64, n)
		for d, q := range gpuQ {
			gpuIdx[d] = none
			for i, e := range q {
				start := gpuBusy[d]
				if e.readyAt > start {
					start = e.readyAt
				}
				if gpuIdx[d] == none || start < gpuStart[d]-eps {
					gpuIdx[d] = i
					gpuStart[d] = start
					gpuFin[d] = start + p.GPUs[d].ExpertTime(e.task.Flops, e.task.Bytes)
				}
			}
		}
		xferDev := none
		var xferFin float64
		if len(cpuQ) > 0 {
			t := cpuQ[len(cpuQ)-1]
			var bestReady float64
			for d := 0; d < n; d++ {
				fin := linkBusy[d] + p.Links[d].TransferTime(t.Bytes)
				ready := fin
				if gpuBusy[d] > ready {
					ready = gpuBusy[d]
				}
				if xferDev == none || ready < bestReady-eps {
					xferDev = d
					bestReady = ready
					xferFin = fin
				}
			}
		}
		best := none
		var bestFin float64
		consider := func(kind int, fin float64, ok bool) {
			if !ok {
				return
			}
			if best == none || fin < bestFin-eps {
				best = kind
				bestFin = fin
			}
		}
		consider(0, cpuFin, cpuHead || stealDev != none)
		for d := 0; d < n; d++ {
			consider(1+d, gpuFin[d], gpuIdx[d] != none)
		}
		consider(1+n, xferFin, xferDev != none)
		switch {
		case best == 0:
			var t Task
			if cpuHead {
				t = cpuQ[0]
				cpuQ = cpuQ[1:]
			} else {
				t = gpuQ[stealDev][stealIdx].task
				gpuQ[stealDev] = append(gpuQ[stealDev][:stealIdx], gpuQ[stealDev][stealIdx+1:]...)
			}
			appendOp(Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: cpuFin})
			cpuBusy = cpuFin
			cpuFirst = false
		case best >= 1 && best <= n:
			d := best - 1
			e := gpuQ[d][gpuIdx[d]]
			gpuQ[d] = append(gpuQ[d][:gpuIdx[d]], gpuQ[d][gpuIdx[d]+1:]...)
			appendOp(Op{Expert: e.task.ID, Kind: OpComputeGPU, Load: e.task.Load,
				Start: gpuStart[d], End: gpuFin[d], Device: hw.GPUAt(d)})
			gpuBusy[d] = gpuFin[d]
		case best == 1+n:
			t := cpuQ[len(cpuQ)-1]
			cpuQ = cpuQ[:len(cpuQ)-1]
			appendOp(Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load,
				Start: linkBusy[xferDev], End: xferFin, Device: hw.GPUAt(xferDev)})
			linkBusy[xferDev] = xferFin
			plan.Transferred = append(plan.Transferred, t.ID)
			entry := refEntry{task: t, readyAt: xferFin, viaTransfer: true}
			q := gpuQ[xferDev]
			pos := sort.Search(len(q), func(i int) bool { return q[i].task.Load < t.Load })
			q = append(q, refEntry{})
			copy(q[pos+1:], q[pos:])
			q[pos] = entry
			gpuQ[xferDev] = q
		default:
			panic("reference: no candidate operation")
		}
	}
	return plan
}

func refKTransStatic(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	var cpuTasks, gpuTasks []Task
	for _, t := range tasks {
		if t.Cached {
			gpuTasks = append(gpuTasks, t)
		} else {
			cpuTasks = append(cpuTasks, t)
		}
	}
	sort.SliceStable(gpuTasks, func(i, j int) bool { return gpuTasks[i].Load > gpuTasks[j].Load })
	sort.SliceStable(cpuTasks, func(i, j int) bool { return cpuTasks[i].Load < cpuTasks[j].Load })
	gpuBusy := res.gpuAt(0)
	for _, t := range gpuTasks {
		end := gpuBusy + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: gpuBusy, End: end})
		gpuBusy = end
	}
	cpuBusy := res.CPUFree
	for i, t := range cpuTasks {
		end := cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: end})
		cpuBusy = end
	}
	plan.Makespan = maxFloat(gpuBusy, cpuBusy)
	if len(gpuTasks) == 0 {
		plan.Makespan = cpuBusy
	}
	if len(cpuTasks) == 0 {
		plan.Makespan = gpuBusy
	}
	if len(tasks) == 0 {
		plan.Makespan = 0
	}
	return plan
}

func refGPUCentric(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	var cached, missed []Task
	for _, t := range tasks {
		if t.Cached {
			cached = append(cached, t)
		} else {
			missed = append(missed, t)
		}
	}
	sort.SliceStable(cached, func(i, j int) bool { return cached[i].Load > cached[j].Load })
	sort.SliceStable(missed, func(i, j int) bool { return missed[i].Load > missed[j].Load })
	linkBusy := res.linkAt(0)
	type ready struct {
		task Task
		at   float64
	}
	var pend []ready
	for _, t := range missed {
		end := linkBusy + p.Links[0].TransferTime(t.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: end})
		plan.Transferred = append(plan.Transferred, t.ID)
		linkBusy = end
		pend = append(pend, ready{task: t, at: end})
	}
	for _, t := range cached {
		pend = append([]ready{{task: t}}, pend...)
	}
	sort.SliceStable(pend, func(i, j int) bool { return pend[i].at < pend[j].at })
	gpuBusy := res.gpuAt(0)
	for _, r := range pend {
		start := maxFloat(gpuBusy, r.at)
		end := start + p.GPUs[0].ExpertTime(r.task.Flops, r.task.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: r.task.ID, Kind: OpComputeGPU, Load: r.task.Load, Start: start, End: end})
		gpuBusy = end
	}
	plan.Makespan = gpuBusy
	if len(tasks) == 0 {
		plan.Makespan = 0
	}
	return plan
}

func refStaticSplit(gpuLayer func(int) bool, tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	if len(tasks) == 0 {
		return plan
	}
	onGPU := gpuLayer != nil && gpuLayer(tasks[0].ID.Layer)
	ordered := make([]Task, len(tasks))
	copy(ordered, tasks)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Load > ordered[j].Load })
	if onGPU {
		gpuBusy := res.gpuAt(0)
		for _, t := range ordered {
			end := gpuBusy + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
			plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: gpuBusy, End: end})
			gpuBusy = end
		}
		plan.Makespan = gpuBusy
		return plan
	}
	cpuBusy := res.CPUFree
	for i, t := range ordered {
		end := cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: end})
		cpuBusy = end
	}
	plan.Makespan = cpuBusy
	return plan
}

type refPlanner func(tasks []Task, p *hw.Platform, res Resources) *Plan

// referenceFor picks the reference planner for a registered scheduler
// by its concrete type, so schedulers registered under other names
// (third-party test registrations) are checked too.
func referenceFor(t *testing.T, s Scheduler) refPlanner {
	t.Helper()
	switch s := s.(type) {
	case *HybriMoE:
		return refHybriMoE
	case *ExpertParallel:
		return refExpertParallel
	case *KTransStatic:
		return refKTransStatic
	case *GPUCentric:
		return refGPUCentric
	case *StaticSplit:
		return func(tasks []Task, p *hw.Platform, res Resources) *Plan {
			return refStaticSplit(s.GPULayer, tasks, p, res)
		}
	case *Exhaustive:
		return refExhaustive
	}
	t.Fatalf("no reference planner for %T", s)
	return nil
}

// referenceTasks draws one layer's task set: n tasks with loads from 1
// to maxLoad, each cached with probability share. Unit-platform tasks
// take one unit of CPU time per token and one transfer slot, so ties
// abound; elsewhere they are sized by cfg. spread places cached tasks on
// random GPUs of p.
func referenceTasks(rng *stats.RNG, p *hw.Platform, cfg *moe.Config, layer, n, maxLoad int, share float64, spread bool) []Task {
	tasks := make([]Task, n)
	for e := range tasks {
		load := 1 + rng.Intn(maxLoad)
		t := Task{ID: id(layer, e), Load: load, Flops: cfg.ExpertFlops(load), Bytes: cfg.ExpertBytes(),
			Cached: rng.Float64() < share}
		if p.Name == "unit" {
			t.Flops, t.Bytes = float64(load), 1
		}
		if t.Cached && spread {
			t.Device = hw.GPUAt(rng.Intn(p.NumGPUs()))
		}
		tasks[e] = t
	}
	return tasks
}

// referenceResources draws the timeline offsets at layer start, a
// quarter of them zero, with one GPU and one link frontier per device
// (as the engine builds them).
func referenceResources(rng *stats.RNG, p *hw.Platform) Resources {
	scale := 1e-3
	if p.Name == "unit" {
		scale = 4
	}
	offset := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		if p.Name == "unit" {
			return float64(rng.Intn(5))
		}
		return rng.Float64() * scale
	}
	gpus := p.NumGPUs()
	res := Resources{CPUFree: offset(), GPUFree: make([]float64, gpus), LinkFree: make([]float64, gpus)}
	for d := 0; d < gpus; d++ {
		res.GPUFree[d], res.LinkFree[d] = offset(), offset()
	}
	return res
}

// clonePlan copies a scheduler-owned plan, which the scheduler's next
// Plan call overwrites.
func clonePlan(pl *Plan) *Plan {
	return &Plan{Ops: slices.Clone(pl.Ops), Makespan: pl.Makespan, Transferred: slices.Clone(pl.Transferred)}
}

func samePlan(got, want *Plan) bool {
	return got.Makespan == want.Makespan && slices.Equal(got.Ops, want.Ops) &&
		slices.Equal(got.Transferred, want.Transferred)
}

// TestSchedulersMatchReference replays random task sets through every
// registered scheduler and requires the plan of its reference planner,
// op for op, and a valid plan. One instance per scheduler alternates
// large and small task sets, so scratch left over from a bigger plan
// would show; half the small sets have decode-like loads of 1–4, where
// HybriMoE's static fallback sometimes wins. On single-GPU platforms
// expert-parallel must also equal the reference HybriMoE greedy pass,
// the loop the two now share. Each trial is also planned on an idle
// platform twice, as Resources{} and as zero frontiers for every
// device, and the two plans must agree: a device past the end of a
// vector is free.
func TestSchedulersMatchReference(t *testing.T) {
	platforms := []*hw.Platform{
		hw.UnitPlatform(), hw.LaptopPlatform(), hw.A6000Platform(),
		hw.MultiA6000Platform(2), hw.MultiA6000Platform(4),
	}
	cfgs := []*moe.Config{moe.DeepSeek(), moe.Mixtral(), moe.Qwen2()}
	gpuLayer := func(l int) bool { return l%2 == 0 }
	const trials = 1000
	for k, name := range Names() {
		s, err := New(name, Config{GPULayer: gpuLayer})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceFor(t, s)
		rng := stats.NewRNG(uint64(1000 + k))
		fallbacks := 0
		for trial := 0; trial < trials; trial++ {
			p := platforms[trial%len(platforms)]
			n, maxLoad := 9+rng.Intn(56), 100 // large: 9–64 tasks
			switch trial % 4 {
			case 1:
				n, maxLoad = 1+rng.Intn(4), 4 // decode-like
			case 3:
				n = 1 + rng.Intn(8) // small: 1–8 tasks
			}
			if _, ok := s.(*Exhaustive); ok {
				n = 1 + rng.Intn(8)
			}
			share := rng.Float64()
			switch trial % 8 {
			case 0:
				share = 0
			case 4:
				share = 1
			}
			layer := rng.Intn(26)
			if _, ok := s.(*StaticSplit); ok && gpuLayer(layer) {
				share = 1 // llama.cpp's GPU layers are resident by construction
			}
			tasks := referenceTasks(rng, p, cfgs[trial%len(cfgs)], layer, n, maxLoad, share, IsDeviceAware(s))
			res := referenceResources(rng, p)

			got := s.Plan(tasks, p, res)
			want := ref(tasks, p, res)
			if !samePlan(got, want) {
				t.Fatalf("%s trial %d on %s (%d tasks): plan diverged from the reference\n got %+v\nwant %+v",
					name, trial, p.Name, n, got, want)
			}
			if err := got.Validate(tasks, res); err != nil {
				t.Fatalf("%s trial %d on %s: %v", name, trial, p.Name, err)
			}
			switch s.(type) {
			case *HybriMoE:
				if !samePlan(got, refHybriMoEGreedy(tasks, p, res)) {
					fallbacks++
				}
			case *ExpertParallel:
				if p.NumGPUs() > 1 {
					break
				}
				if want := refHybriMoEGreedy(tasks, p, res); !samePlan(got, want) {
					t.Fatalf("trial %d on %s: single-GPU expert-parallel diverged from the HybriMoE greedy pass\n got %+v\nwant %+v",
						trial, p.Name, got, want)
				}
			}
			idle := clonePlan(s.Plan(tasks, p, Resources{}))
			gpus := p.NumGPUs()
			zeros := s.Plan(tasks, p, Resources{GPUFree: make([]float64, gpus), LinkFree: make([]float64, gpus)})
			if !samePlan(idle, zeros) {
				t.Fatalf("%s trial %d on %s: Resources{} planned differently from zero frontiers\n got %+v\nwant %+v",
					name, trial, p.Name, idle, zeros)
			}
		}
		if _, ok := s.(*HybriMoE); ok && fallbacks == 0 {
			t.Errorf("%s: no trial took the static fallback; the draw no longer covers it", name)
		}
	}
}

// TestPlanDoesNotAllocate pins the steady-state allocation contract:
// after one warm-up call grows the scheduler's plan and the pooled
// scratch, planning a decode-shaped or a prefill-shaped layer allocates
// nothing, for every scheduler the engine runs.
func TestPlanDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := stats.NewRNG(11)
	decode := referenceTasks(rng, hw.A6000Platform(), moe.DeepSeek(), 0, 6, 1, 0.5, false)
	prefill := referenceTasks(rng, hw.A6000Platform(), moe.Qwen2(), 1, 64, 30, 0.25, false)
	dual := hw.MultiA6000Platform(2)
	dualDecode := referenceTasks(rng, dual, moe.DeepSeek(), 0, 6, 1, 0.5, true)
	dualPrefill := referenceTasks(rng, dual, moe.Qwen2(), 1, 64, 30, 0.25, true)
	res := Resources{CPUFree: 1e-4, GPUFree: []float64{3e-4}, LinkFree: []float64{5e-5}}
	cases := []struct {
		name            string
		s               Scheduler
		p               *hw.Platform
		decode, prefill []Task
	}{
		{"hybrimoe", NewHybriMoE(), hw.A6000Platform(), decode, prefill},
		{"expert-parallel", NewExpertParallel(), hw.A6000Platform(), decode, prefill},
		{"expert-parallel/2gpu", NewExpertParallel(), dual, dualDecode, dualPrefill},
		{"ktrans-static", NewKTransStatic(), hw.A6000Platform(), decode, prefill},
		{"gpu-centric", NewGPUCentric(), hw.A6000Platform(), decode, prefill},
		// Layer 0 is a GPU layer and layer 1 a CPU layer.
		{"static-split", NewStaticSplit(func(l int) bool { return l == 0 }), hw.A6000Platform(), decode, prefill},
	}
	for _, c := range cases {
		for _, tasks := range [][]Task{c.decode, c.prefill} {
			c.s.Plan(tasks, c.p, res)
			if a := testing.AllocsPerRun(100, func() { c.s.Plan(tasks, c.p, res) }); a != 0 {
				t.Errorf("%s: Plan over %d tasks allocated %.1f times per call", c.name, len(tasks), a)
			}
		}
	}
}
