package engine

import (
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// collect drains a session into its event list.
func collect(s *Session) []StepEvent {
	var events []StepEvent
	s.Run(func(ev StepEvent) { events = append(events, ev) })
	return events
}

// The 1-GPU degenerate pin: a session on the explicit single-GPU preset
// and one on MultiA6000Platform(1) must produce event-for-event
// identical runs — the N-device plumbing may not perturb the scalar
// path in any way.
func TestSingleGPUSessionEventIdentity(t *testing.T) {
	run := func(p *hw.Platform) []StepEvent {
		e, err := New(moe.DeepSeek(), p, HybriMoEFramework(),
			WithCacheRatio(0.25), WithSeed(200), WithPlanValidation())
		if err != nil {
			t.Fatal(err)
		}
		s := e.NewSession(WithMaxConcurrent(2))
		s.Submit(testRequests()...)
		return collect(s)
	}
	a := run(hw.A6000Platform())
	b := run(hw.MultiA6000Platform(1))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("single-GPU event streams diverged:\n%+v\nvs\n%+v", a, b)
	}
	for i, ev := range a {
		if len(ev.GPUBusyByDevice) != 1 || len(ev.LinkBusyByDevice) != 1 {
			t.Fatalf("event %d: single-GPU per-device vectors %v/%v, want length 1",
				i, ev.GPUBusyByDevice, ev.LinkBusyByDevice)
		}
		if math.Abs(ev.GPUBusyByDevice[0]-ev.GPUBusy) > 1e-12 ||
			math.Abs(ev.LinkBusyByDevice[0]-ev.LinkBusy) > 1e-12 {
			t.Fatalf("event %d: scalar/vector mismatch: %+v", i, ev)
		}
	}
}

// expertParallelFramework is the HybriMoE stack planning through the
// multi-GPU placement scheduler.
func expertParallelFramework() Framework {
	fw := HybriMoEFramework()
	fw.Sched = "expert-parallel"
	return fw
}

// A dual-GPU session must exercise both devices: per-device busy
// vectors carry length 2, the scalars are their sums, both GPUs see
// compute, and both cache shards hold experts.
func TestDualGPUSessionUsesBothDevices(t *testing.T) {
	e, err := New(moe.DeepSeek(), hw.MultiA6000Platform(2), expertParallelFramework(),
		WithCacheRatio(0.25), WithSeed(200), WithPlanValidation())
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Platform().NumGPUs(); n != 2 {
		t.Fatalf("NumGPUs = %d, want 2", n)
	}
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(testRequests()...)
	events := collect(s)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	busy := make([]float64, 2)
	for i, ev := range events {
		if len(ev.GPUBusyByDevice) != 2 || len(ev.LinkBusyByDevice) != 2 {
			t.Fatalf("event %d: per-device vectors %v/%v, want length 2",
				i, ev.GPUBusyByDevice, ev.LinkBusyByDevice)
		}
		var gpuSum, linkSum float64
		for d := 0; d < 2; d++ {
			gpuSum += ev.GPUBusyByDevice[d]
			linkSum += ev.LinkBusyByDevice[d]
			busy[d] += ev.GPUBusyByDevice[d]
		}
		if math.Abs(gpuSum-ev.GPUBusy) > 1e-9 || math.Abs(linkSum-ev.LinkBusy) > 1e-9 {
			t.Fatalf("event %d: scalars are not the vector sums: %+v", i, ev)
		}
	}
	if busy[0] == 0 || busy[1] == 0 {
		t.Fatalf("expert-parallel on two GPUs left a device idle: %v", busy)
	}
	caches := e.cache
	if caches.Devices() != 2 {
		t.Fatalf("cache devices = %d, want 2", caches.Devices())
	}
	if caches.Shard(0).Len() == 0 || caches.Shard(1).Len() == 0 {
		t.Fatalf("warm start left a shard empty: %d/%d",
			caches.Shard(0).Len(), caches.Shard(1).Len())
	}
	if caches.Hits() <= 0 {
		t.Fatalf("aggregate hits = %d", caches.Hits())
	}
}

// Per-device capacity: every placement shard gets the full per-GPU
// expert budget, so a dual expert-parallel engine holds twice the
// residency of a single one. A single-GPU planner on the same dual
// platform places on GPU0 alone, so it holds one shard of single
// capacity.
func TestPerDeviceCacheCapacity(t *testing.T) {
	cfg := moe.DeepSeek()
	build := func(p *hw.Platform, fw Framework) *Engine {
		e, err := New(cfg, p, fw, WithCacheRatio(0.25), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	single := build(hw.A6000Platform(), HybriMoEFramework()).cache.Capacity()
	if got := build(hw.MultiA6000Platform(2), expertParallelFramework()).cache.Capacity(); got != 2*single {
		t.Fatalf("dual expert-parallel capacity = %d, want %d (2× single)", got, 2*single)
	}
	confined := build(hw.MultiA6000Platform(2), HybriMoEFramework()).cache
	if confined.Devices() != 1 || confined.Capacity() != single {
		t.Fatalf("confined dual engine holds %d shards of capacity %d, want 1 shard of %d",
			confined.Devices(), confined.Capacity(), single)
	}
}

// Mixing a device-aware decode scheduler with a single-GPU prefill
// scheduler on a multi-GPU platform is rejected at construction: one
// stage would spread residency across devices the other cannot see.
// On one GPU the mix is harmless and allowed.
func TestMixedDeviceAwarenessRejectedOnMultiGPU(t *testing.T) {
	fw := KTransformersFramework()
	fw.Sched = "expert-parallel" // prefill stays gpu-centric
	if _, err := New(moe.DeepSeek(), hw.MultiA6000Platform(4), fw, WithSeed(1)); err == nil {
		t.Fatal("mixed stage schedulers on a 4-GPU platform should error")
	}
	if _, err := New(moe.DeepSeek(), hw.A6000Platform(), fw, WithSeed(1)); err != nil {
		t.Fatalf("mixed stage schedulers on one GPU should be fine: %v", err)
	}
}

// Request classes ride every event of the request, shed records
// included.
func TestStepEventCarriesClass(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 200)
	s := e.NewSession()
	s.Submit(workload.Request{ID: 7, PromptTokens: 16, DecodeTokens: 2, Class: "interactive"})
	for _, ev := range collect(s) {
		if ev.Class != "interactive" {
			t.Fatalf("event lost its class: %+v", ev)
		}
	}
}
