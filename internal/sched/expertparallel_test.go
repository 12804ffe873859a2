package sched

import (
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
)

// randomTasks draws a reproducible task mix with residency spread over
// the platform's GPUs.
func randomTasks(rng *stats.RNG, cfg *moe.Config, layer, n, gpus int) []Task {
	var tasks []Task
	for e := 0; e < n; e++ {
		load := 1 + rng.Intn(100)
		cached := rng.Float64() < 0.4
		dev := hw.GPU
		if cached && gpus > 1 {
			dev = hw.GPUAt(rng.Intn(gpus))
		}
		tasks = append(tasks, Task{
			ID: id(layer, e), Load: load,
			Flops:  cfg.ExpertFlops(load),
			Bytes:  cfg.ExpertBytes(),
			Cached: cached,
			Device: dev,
		})
	}
	return tasks
}

// Property: expert-parallel plans validate for arbitrary task mixes on
// single- and multi-GPU platforms, with per-device resource offsets.
func TestExpertParallelPlanAlwaysValid(t *testing.T) {
	platforms := []*hw.Platform{
		hw.A6000Platform(), hw.MultiA6000Platform(2), hw.MultiA6000Platform(4),
	}
	rng := stats.NewRNG(314)
	cfg := moe.Mixtral()
	for trial := 0; trial < 300; trial++ {
		p := platforms[trial%len(platforms)]
		gpus := p.NumGPUs()
		tasks := randomTasks(rng, cfg, trial%32, 1+rng.Intn(10), gpus)
		res := Resources{CPUFree: rng.Float64() * 1e-3,
			GPUFree: make([]float64, gpus), LinkFree: make([]float64, gpus)}
		for d := 0; d < gpus; d++ {
			res.GPUFree[d] = rng.Float64() * 1e-3
			res.LinkFree[d] = rng.Float64() * 1e-3
		}
		plan := NewExpertParallel().Plan(tasks, p, res)
		if err := plan.Validate(tasks, res); err != nil {
			t.Fatalf("trial %d on %s: %v", trial, p.Name, err)
		}
	}
}

// Pin the 1-GPU degenerate case: on a single-GPU platform,
// expert-parallel produces exactly the HybriMoE greedy schedule, op for
// op. The greedy pass is the test-only reference copy in
// reference_test.go, since HybriMoE now runs expert-parallel's loop.
func TestExpertParallelSingleGPUMatchesHybriMoEGreedy(t *testing.T) {
	rng := stats.NewRNG(99)
	cfg := moe.Mixtral()
	for trial := 0; trial < 200; trial++ {
		tasks := randomTasks(rng, cfg, trial%32, 1+rng.Intn(10), 1)
		res := Resources{
			CPUFree:  rng.Float64() * 1e-3,
			GPUFree:  []float64{rng.Float64() * 1e-3},
			LinkFree: []float64{rng.Float64() * 1e-3},
		}
		got := NewExpertParallel().Plan(tasks, hw.A6000Platform(), res)
		want := refHybriMoEGreedy(tasks, hw.A6000Platform(), res)
		if math.Abs(got.Makespan-want.Makespan) > 1e-12 || len(got.Ops) != len(want.Ops) {
			t.Fatalf("trial %d: single-GPU expert-parallel diverged from HybriMoE greedy:\n got %+v\nwant %+v",
				trial, got, want)
		}
		for i := range got.Ops {
			if got.Ops[i] != want.Ops[i] {
				t.Fatalf("trial %d op %d: got %+v, want %+v", trial, i, got.Ops[i], want.Ops[i])
			}
		}
		if !reflect.DeepEqual(got.Transferred, want.Transferred) {
			t.Fatalf("trial %d transfers: got %v, want %v", trial, got.Transferred, want.Transferred)
		}
	}
}

// Pin that every built-in single-GPU scheduler still targets device 0
// for every GPU and transfer op — the plan-identity guarantee the
// N-device refactor makes to pre-refactor consumers.
func TestSingleGPUSchedulersTargetDevice0(t *testing.T) {
	rng := stats.NewRNG(7)
	cfg := moe.Mixtral()
	for _, name := range Names() {
		s, err := New(name, Config{GPULayer: func(int) bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(8)
			if name == "exhaustive" && n > MaxExhaustiveTasks {
				n = MaxExhaustiveTasks
			}
			tasks := randomTasks(rng, cfg, trial%32, n, 1)
			plan := s.Plan(tasks, hw.A6000Platform(), Resources{})
			for _, op := range plan.Ops {
				if op.Kind != OpComputeCPU && op.Device != hw.GPU {
					t.Fatalf("%s: op %+v targets %v on a single-GPU platform", name, op, op.Device)
				}
			}
		}
	}
}

// Cached experts must run on their resident device, and uncached work
// should spread across both links under contention.
func TestExpertParallelFollowsResidency(t *testing.T) {
	p := hw.MultiA6000Platform(2)
	cfg := moe.Mixtral()
	var tasks []Task
	for e := 0; e < 6; e++ {
		tasks = append(tasks, Task{
			ID: id(0, e), Load: 50,
			Flops:  cfg.ExpertFlops(50),
			Bytes:  cfg.ExpertBytes(),
			Cached: true,
			Device: hw.GPUAt(e % 2),
		})
	}
	plan := NewExpertParallel().Plan(tasks, p, Resources{})
	if err := plan.Validate(tasks, Resources{}); err != nil {
		t.Fatal(err)
	}
	used := map[hw.Device]int{}
	for _, op := range plan.Ops {
		if op.Kind == OpComputeGPU {
			used[op.Device]++
			if want := hw.GPUAt(op.Expert.Index % 2); op.Device != want {
				t.Fatalf("expert %v ran on %v, cached on %v", op.Expert, op.Device, want)
			}
		}
	}
	if used[hw.GPUAt(0)] == 0 || used[hw.GPUAt(1)] == 0 {
		t.Fatalf("residency-spread experts should use both GPUs: %v", used)
	}
}

// Two GPUs must beat one on a GPU-bound cached workload: the same task
// set split across two devices halves the serial compute chain.
func TestExpertParallelDualGPUBeatsSingleOnCachedLoad(t *testing.T) {
	cfg := moe.Mixtral()
	mkTasks := func(gpus int) []Task {
		var tasks []Task
		for e := 0; e < 8; e++ {
			tasks = append(tasks, Task{
				ID: id(0, e), Load: 1,
				Flops:  cfg.ExpertFlops(1),
				Bytes:  cfg.ExpertBytes(),
				Cached: true,
				Device: hw.GPUAt(e % gpus),
			})
		}
		return tasks
	}
	single := NewExpertParallel().Plan(mkTasks(1), hw.A6000Platform(), Resources{})
	dual := NewExpertParallel().Plan(mkTasks(2), hw.MultiA6000Platform(2), Resources{})
	if dual.Makespan >= single.Makespan {
		t.Fatalf("dual-GPU makespan %v should beat single-GPU %v", dual.Makespan, single.Makespan)
	}
}
