package sched

import (
	"math"
	"slices"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

func id(l, e int) moe.ExpertID { return moe.ExpertID{Layer: l, Index: e} }

// unitTask builds a task on the unit platform where Flops == load units
// of CPU time and Bytes == 1 (one 3-unit transfer).
func unitTask(e, load int, cached bool) Task {
	return Task{ID: id(0, e), Load: load, Flops: float64(load), Bytes: 1, Cached: cached}
}

// TestPaperFigure5Example replays the paper's scheduling walk-through:
// uncached A:1, B:1, C:3 and cached D:4, E:1 on a platform where GPU
// compute is 1 unit per expert, CPU compute equals the load, and a
// transfer takes 3 units. The optimal strategy computes A and B on the
// CPU, transfers C to the GPU, and finishes everything by t=4.
func TestPaperFigure5Example(t *testing.T) {
	p := hw.UnitPlatform()
	tasks := []Task{
		unitTask(0, 1, false), // A
		unitTask(1, 1, false), // B
		unitTask(2, 3, false), // C
		unitTask(3, 4, true),  // D
		unitTask(4, 1, true),  // E
	}
	plan := NewHybriMoE().Plan(tasks, p, Resources{})
	if err := plan.Validate(tasks, Resources{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Makespan-4) > 1e-9 {
		t.Fatalf("makespan = %v, want 4 (paper's optimum)\nops: %+v", plan.Makespan, plan.Ops)
	}
	// C must reach the GPU via transfer, not be ground out on the CPU.
	var cOnGPU, cTransferred bool
	for _, op := range plan.Ops {
		if op.Expert == id(0, 2) {
			switch op.Kind {
			case OpComputeGPU:
				cOnGPU = true
			case OpTransfer:
				cTransferred = true
			}
		}
	}
	if !cOnGPU || !cTransferred {
		t.Fatalf("expert C should be loaded to the GPU instead of computed on CPU\nops: %+v", plan.Ops)
	}
	// A and B run on the CPU.
	for _, e := range []int{0, 1} {
		found := false
		for _, op := range plan.Ops {
			if op.Expert == id(0, e) && op.Kind == OpComputeCPU {
				found = true
			}
		}
		if !found {
			t.Fatalf("low-load uncached expert %d should run on CPU", e)
		}
	}
}

func TestHybriMoEEmptyPlan(t *testing.T) {
	plan := NewHybriMoE().Plan(nil, hw.UnitPlatform(), Resources{})
	if plan.Makespan != 0 || len(plan.Ops) != 0 {
		t.Fatal("empty task list should give empty plan")
	}
}

func TestHybriMoEAllCached(t *testing.T) {
	p := hw.UnitPlatform()
	tasks := []Task{unitTask(0, 5, true), unitTask(1, 1, true), unitTask(2, 2, true)}
	plan := NewHybriMoE().Plan(tasks, p, Resources{})
	if err := plan.Validate(tasks, Resources{}); err != nil {
		t.Fatal(err)
	}
	// 3 cached experts: GPU alone takes 3 units; the CPU can steal the
	// low-load ones. Optimal is 2 (GPU computes 2, CPU steals 1) — the
	// greedy must do no worse than GPU-only.
	if plan.Makespan > 3+1e-9 {
		t.Fatalf("makespan %v worse than trivial GPU-only bound 3", plan.Makespan)
	}
	if len(plan.Transferred) != 0 {
		t.Fatal("cached-only layer must not transfer")
	}
}

func TestHybriMoECPUStealsCachedWhenIdle(t *testing.T) {
	p := hw.UnitPlatform()
	// Only cached experts, many of them: the CPU should pick up some
	// low-load ones rather than idle (paper's CPU priority rule).
	var tasks []Task
	for e := 0; e < 6; e++ {
		tasks = append(tasks, unitTask(e, 1, true))
	}
	plan := NewHybriMoE().Plan(tasks, p, Resources{})
	if err := plan.Validate(tasks, Resources{}); err != nil {
		t.Fatal(err)
	}
	var cpuOps int
	for _, op := range plan.Ops {
		if op.Kind == OpComputeCPU {
			cpuOps++
		}
	}
	if cpuOps == 0 {
		t.Fatalf("CPU stayed idle with 6 cached unit tasks:\n%+v", plan.Ops)
	}
	if plan.Makespan > 4+1e-9 {
		t.Fatalf("steal-balanced makespan %v, want ≤4", plan.Makespan)
	}
}

func TestHybriMoEAllUncachedDecode(t *testing.T) {
	// Decode-style: unit loads, all missing. With transfer=3 and CPU=1
	// per task, the CPU should do nearly everything.
	p := hw.UnitPlatform()
	var tasks []Task
	for e := 0; e < 4; e++ {
		tasks = append(tasks, unitTask(e, 1, false))
	}
	plan := NewHybriMoE().Plan(tasks, p, Resources{})
	if err := plan.Validate(tasks, Resources{}); err != nil {
		t.Fatal(err)
	}
	if plan.Makespan > 4+1e-9 {
		t.Fatalf("decode makespan %v, want ≤4 (CPU serial bound)", plan.Makespan)
	}
}

func TestHybriMoERespectsResourceOffsets(t *testing.T) {
	p := hw.UnitPlatform()
	tasks := []Task{unitTask(0, 2, true)}
	// GPU busy until t=10 (attention/shared experts): the CPU should
	// steal the single cached expert rather than wait.
	res := Resources{GPUFree: []float64{10}}
	plan := NewHybriMoE().Plan(tasks, p, res)
	if err := plan.Validate(tasks, res); err != nil {
		t.Fatal(err)
	}
	if plan.Makespan > 2+1e-9 {
		t.Fatalf("makespan %v: scheduler waited for busy GPU instead of stealing", plan.Makespan)
	}
	if plan.Ops[0].Kind != OpComputeCPU {
		t.Fatalf("expected CPU steal, got %+v", plan.Ops)
	}
}

func TestHybriMoENegativeResourcesPanic(t *testing.T) {
	for _, res := range []Resources{
		{CPUFree: -1},
		{GPUFree: []float64{0, -1}},
		{LinkFree: []float64{-1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("negative resources %+v should panic", res)
				}
			}()
			NewHybriMoE().Plan(nil, hw.UnitPlatform(), res)
		}()
	}
}

func TestHybriMoECPUWarmupAppliedOnce(t *testing.T) {
	p := hw.A6000Platform()
	cfg := moe.DeepSeek()
	var tasks []Task
	for e := 0; e < 4; e++ {
		tasks = append(tasks, Task{
			ID: id(0, e), Load: 1,
			Flops: cfg.ExpertFlops(1), Bytes: cfg.ExpertBytes(),
			Cached: false,
		})
	}
	plan := NewHybriMoE().Plan(tasks, p, Resources{})
	var cpuSpans []Op
	for _, op := range plan.Ops {
		if op.Kind == OpComputeCPU {
			cpuSpans = append(cpuSpans, op)
		}
	}
	if len(cpuSpans) < 2 {
		t.Skip("not enough CPU ops to compare")
	}
	first := cpuSpans[0].End - cpuSpans[0].Start
	second := cpuSpans[1].End - cpuSpans[1].Start
	if first <= second {
		t.Fatalf("first CPU op (%v) should pay the warm-up over the second (%v)", first, second)
	}
}

// The greedy simulation should stay close to the exhaustive assignment
// optimum on small random instances: the cost of scheduling greedily
// instead of searching every CPU/GPU assignment.
func TestHybriMoENearOptimal(t *testing.T) {
	p := hw.UnitPlatform()
	rng := stats.NewRNG(314)
	var worst float64
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		var tasks []Task
		for e := 0; e < n; e++ {
			tasks = append(tasks, unitTask(e, 1+rng.Intn(6), rng.Float64() < 0.5))
		}
		greedy := NewHybriMoE().Plan(tasks, p, Resources{})
		if err := greedy.Validate(tasks, Resources{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		optimal := NewExhaustive().Plan(tasks, p, Resources{})
		if optimal.Makespan <= 0 {
			continue
		}
		ratio := greedy.Makespan / optimal.Makespan
		if ratio < 1-1e-9 {
			t.Fatalf("trial %d: greedy %v beat 'optimal' %v — exhaustive reference broken",
				trial, greedy.Makespan, optimal.Makespan)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Logf("worst greedy/optimal ratio over 200 trials: %.3f", worst)
	if worst > 1.5 {
		t.Fatalf("greedy strays %.2fx from optimum — priority rules broken", worst)
	}
}

// Property: plans validate for arbitrary task mixes on both realistic
// platforms.
func TestHybriMoEPlanAlwaysValid(t *testing.T) {
	platforms := []*hw.Platform{hw.A6000Platform(), hw.LaptopPlatform(), hw.UnitPlatform()}
	rng := stats.NewRNG(271)
	cfg := moe.Mixtral()
	for trial := 0; trial < 300; trial++ {
		p := platforms[trial%len(platforms)]
		n := 1 + rng.Intn(10)
		var tasks []Task
		for e := 0; e < n; e++ {
			load := 1 + rng.Intn(100)
			tasks = append(tasks, Task{
				ID: id(trial%32, e), Load: load,
				Flops:  cfg.ExpertFlops(load),
				Bytes:  cfg.ExpertBytes(),
				Cached: rng.Float64() < 0.4,
			})
		}
		res := Resources{
			CPUFree:  rng.Float64() * 1e-3,
			GPUFree:  []float64{rng.Float64() * 1e-3},
			LinkFree: []float64{rng.Float64() * 1e-3},
		}
		plan := NewHybriMoE().Plan(tasks, p, res)
		if err := plan.Validate(tasks, res); err != nil {
			t.Fatalf("trial %d on %s: %v", trial, p.Name, err)
		}
	}
}

// A lone uncached expert whose transfer lands before the CPU would
// finish it, while attention still holds the GPU: the greedy pass
// transfers it and waits for the GPU, so the static mapping, computing
// it on the CPU, finishes first and HybriMoE returns that plan — also
// from an instance whose scratch a larger plan grew.
func TestHybriMoEStaticFallbackWins(t *testing.T) {
	p := hw.A6000Platform()
	cfg := moe.DeepSeek()
	tasks := []Task{{ID: id(0, 0), Load: 1, Flops: cfg.ExpertFlops(1), Bytes: cfg.ExpertBytes()}}
	res := Resources{GPUFree: []float64{0.44e-3}}
	s := NewHybriMoE()
	s.Plan(randomTasks(stats.NewRNG(1), cfg, 1, 40, 1), p, res)
	plan := s.Plan(tasks, p, res)
	if len(plan.Ops) != 1 || plan.Ops[0].Kind != OpComputeCPU || len(plan.Transferred) != 0 {
		t.Fatalf("want the static CPU-only plan, got %+v", plan)
	}
	if greedy := refHybriMoEGreedy(tasks, p, res); plan.Makespan >= greedy.Makespan {
		t.Fatalf("fallback makespan %v should beat the greedy pass's %v", plan.Makespan, greedy.Makespan)
	}
	if err := plan.Validate(tasks, res); err != nil {
		t.Fatal(err)
	}
}

// TasksFromLoads skips unrouted experts and sizes the rest; a cached
// task carries the device holding its copy, and an uncached one GPU0.
func TestTasksFromLoads(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := make([]int, cfg.RoutedExperts)
	loads[3] = 5
	loads[6] = 2
	loads[7] = 1
	residentOn := func(e moe.ExpertID) (hw.Device, bool) {
		switch e.Index {
		case 3:
			return hw.GPUAt(1), true
		case 6:
			return hw.GPU, true
		}
		return hw.GPUAt(1), false
	}
	stale := make([]Task, 5)
	tasks := TasksFromLoads(stale, cfg, 2, loads, residentOn)
	want := []Task{
		{ID: id(2, 3), Load: 5, Flops: cfg.ExpertFlops(5), Bytes: cfg.ExpertBytes(), Cached: true, Device: hw.GPUAt(1)},
		{ID: id(2, 6), Load: 2, Flops: cfg.ExpertFlops(2), Bytes: cfg.ExpertBytes(), Cached: true, Device: hw.GPU},
		{ID: id(2, 7), Load: 1, Flops: cfg.ExpertFlops(1), Bytes: cfg.ExpertBytes(), Device: hw.GPU},
	}
	if !slices.Equal(tasks, want) {
		t.Fatalf("tasks = %+v\nwant %+v", tasks, want)
	}
	if &tasks[0] != &stale[0] {
		t.Fatal("TasksFromLoads did not reuse dst")
	}
}

func TestOpKindString(t *testing.T) {
	if OpComputeCPU.String() != "cpu" || OpComputeGPU.String() != "gpu" || OpTransfer.String() != "xfer" {
		t.Fatal("op kind names wrong")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Fatal("unknown op kind formatting")
	}
}
