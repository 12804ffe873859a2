package hw

import (
	"math"
	"testing"
)

func TestDeviceString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU0" {
		t.Fatal("device names wrong")
	}
	if GPUAt(1).String() != "GPU1" || Device(9).String() != "GPU9" {
		t.Fatal("GPU device formatting wrong")
	}
}

func TestDeviceIndexing(t *testing.T) {
	if GPUAt(0) != GPU {
		t.Fatal("GPUAt(0) must be the GPU0 constant")
	}
	if GPUAt(3).GPUIndex() != 3 {
		t.Fatal("GPUIndex wrong")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("GPUAt(-1)", func() { GPUAt(-1) })
	mustPanic("CPU.GPUIndex", func() { CPU.GPUIndex() })
	p := A6000Platform()
	mustPanic("LinkOf out of range", func() { p.LinkOf(GPUAt(5)) })
	if p.LinkOf(GPU).Name != p.Links[0].Name {
		t.Fatal("LinkOf must resolve device 0 to the first link")
	}
}

func TestCPUModelShape(t *testing.T) {
	m := A6000Platform().CPU
	flops1 := ExpertFlops(4096, 14336, 1)
	bytes := int64(100 << 20)
	t1 := m.ExpertTime(flops1, bytes, false)
	t8 := m.ExpertTime(8*flops1, bytes, false)
	t64 := m.ExpertTime(64*flops1, bytes, false)
	// Figure 3(f): CPU time grows with workload.
	if t8 <= t1 {
		t.Fatalf("CPU time must grow with workload: %v vs %v", t1, t8)
	}
	// Once compute-bound the growth is linear: 8x the tokens ≈ 8x time.
	ratio := t64 / t8
	if ratio < 6 || ratio > 10 {
		t.Fatalf("CPU compute-bound region not linear: t8=%v t64=%v ratio=%v", t8, t64, ratio)
	}
	// Figure 3(e): first expert pays warm-up.
	tFirst := m.ExpertTime(flops1, bytes, true)
	if tFirst <= t1 {
		t.Fatalf("first expert should be slower: %v vs %v", tFirst, t1)
	}
	if got := tFirst - t1; math.Abs(got-m.WarmupPenalty) > 1e-12 {
		t.Fatalf("warm-up delta = %v, want %v", got, m.WarmupPenalty)
	}
}

func TestGPUModelFlatInWorkload(t *testing.T) {
	p := A6000Platform()
	flops1 := ExpertFlops(4096, 14336, 1)
	bytes := int64(100 << 20)
	t1 := p.GPUs[0].ExpertTime(flops1, bytes)
	t64 := p.GPUs[0].ExpertTime(64*flops1, bytes)
	// Figure 3(f): GPU time nearly flat for small workloads (memory/launch
	// bound): 64 tokens should cost well under 2x one token.
	if t64 > 2*t1 {
		t.Fatalf("GPU should be ~flat at small workloads: t1=%v t64=%v", t1, t64)
	}
	// But very large workloads eventually become compute-bound.
	tHuge := p.GPUs[0].ExpertTime(100000*flops1, bytes)
	if tHuge <= 10*t1 {
		t.Fatalf("GPU must eventually scale with compute: %v vs %v", tHuge, t1)
	}
}

func TestCrossoverCPUFasterAtTinyLoadGPUFasterAtLarge(t *testing.T) {
	// The scheduling opportunity the paper exploits: for a cache miss at
	// decode (1 token), CPU compute beats transfer+GPU compute; for large
	// prefill loads, the GPU wins even including the transfer.
	p := A6000Platform()
	hidden, inter := 4096, 14336
	bytes := int64(90 << 20) // ~Mixtral INT4 expert
	// Decode: 1 token.
	cpu1 := p.CPU.ExpertTime(ExpertFlops(hidden, inter, 1), bytes, false)
	gpuMiss1 := p.Links[0].TransferTime(bytes) + p.GPUs[0].ExpertTime(ExpertFlops(hidden, inter, 1), bytes)
	if cpu1 >= gpuMiss1 {
		t.Fatalf("decode miss: CPU %v should beat transfer+GPU %v", cpu1, gpuMiss1)
	}
	// Prefill: 512 tokens on one expert.
	cpu512 := p.CPU.ExpertTime(ExpertFlops(hidden, inter, 512), bytes, false)
	gpuMiss512 := p.Links[0].TransferTime(bytes) + p.GPUs[0].ExpertTime(ExpertFlops(hidden, inter, 512), bytes)
	if gpuMiss512 >= cpu512 {
		t.Fatalf("prefill miss: transfer+GPU %v should beat CPU %v", gpuMiss512, cpu512)
	}
}

func TestLinkModel(t *testing.T) {
	l := LinkModel{Name: "t", BytesPerSec: 1e9, Latency: 1e-5}
	if got := l.TransferTime(0); got != 1e-5 {
		t.Fatalf("zero-byte transfer = %v, want latency only", got)
	}
	if got := l.TransferTime(1e9); math.Abs(got-(1+1e-5)) > 1e-12 {
		t.Fatalf("1GB transfer = %v", got)
	}
}

func TestValidation(t *testing.T) {
	for _, p := range []*Platform{A6000Platform(), LaptopPlatform(), UnitPlatform()} {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
	}
	bad := A6000Platform()
	bad.CPU.PeakFlops = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero CPU throughput should fail validation")
	}
	bad2 := A6000Platform()
	bad2.GPUs[0].KernelLaunch = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative launch should fail validation")
	}
	bad3 := A6000Platform()
	bad3.Links[0].BytesPerSec = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero link bandwidth should fail validation")
	}
	bad4 := A6000Platform()
	bad4.CPU.WarmupPenalty = -1
	if err := bad4.Validate(); err == nil {
		t.Error("negative warmup should fail validation")
	}
	bad5 := A6000Platform()
	bad5.Links[0].Latency = -1
	if err := bad5.Validate(); err == nil {
		t.Error("negative latency should fail validation")
	}
}

func TestUnitPlatformSemantics(t *testing.T) {
	p := UnitPlatform()
	// One expert on the GPU = 1 unit regardless of load.
	if got := p.GPUs[0].ExpertTime(4, 1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("unit GPU expert = %v, want 1", got)
	}
	// CPU load-4 expert = 4 units.
	if got := p.CPU.ExpertTime(4, 1, false); math.Abs(got-4) > 1e-6 {
		t.Fatalf("unit CPU load-4 = %v, want 4", got)
	}
	// Transfer = 3 units per expert (1 byte).
	if got := p.Links[0].TransferTime(1); math.Abs(got-3) > 1e-9 {
		t.Fatalf("unit transfer = %v, want 3", got)
	}
}

func TestExpertFlops(t *testing.T) {
	if got := ExpertFlops(10, 20, 1); got != 1200 {
		t.Fatalf("ExpertFlops = %v, want 1200", got)
	}
	if got := ExpertFlops(10, 20, 3); got != 3600 {
		t.Fatalf("ExpertFlops batch = %v, want 3600", got)
	}
}

func TestAttentionFlopsGrowsWithContext(t *testing.T) {
	a := AttentionFlops(1024, 1, 128)
	b := AttentionFlops(1024, 1, 4096)
	if b <= a {
		t.Fatalf("attention flops must grow with context: %v vs %v", a, b)
	}
	if AttentionFlops(1024, 2, 128) != 2*a {
		t.Fatal("attention flops must be linear in tokens")
	}
}

// TestExpertTimeMatchesMathMax pins both ExpertTime models, which take
// the builtin max of the compute and the memory term, to the same
// formula with math.Max, bit for bit. The language gives the builtin
// math.Max's NaN and ±0 rules; the inputs include zero flops, zero
// bytes, both zero, equal terms and each term the larger, on a unit
// model and every preset platform's devices.
func TestExpertTimeMatchesMathMax(t *testing.T) {
	cpu := CPUModel{Name: "unit", PeakFlops: 2, MemBandwidth: 4, ExpertOverhead: 0.5, WarmupPenalty: 0.25}
	gpu := GPUModel{Name: "unit", PeakFlops: 2, MemBandwidth: 4, KernelLaunch: 0.125}
	cpus, gpus := []CPUModel{cpu}, []GPUModel{gpu}
	for _, p := range []*Platform{A6000Platform(), LaptopPlatform(), UnitPlatform()} {
		cpus, gpus = append(cpus, p.CPU), append(gpus, p.GPUs...)
	}
	flops1 := ExpertFlops(4096, 14336, 1)
	for _, in := range []struct {
		flops float64
		bytes int64
	}{
		{0, 0}, {0, 100 << 20}, {flops1, 0}, {1, 2}, {6, 12}, {8, 4}, {2, 16},
		{flops1, 100 << 20}, {64 * flops1, 100 << 20}, {1e5 * flops1, 1 << 30},
	} {
		for _, m := range cpus {
			for _, first := range []bool{false, true} {
				want := m.ExpertOverhead + math.Max(in.flops/m.PeakFlops, float64(in.bytes)/m.MemBandwidth)
				if first {
					want += m.WarmupPenalty
				}
				if got := m.ExpertTime(in.flops, in.bytes, first); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("CPU %s ExpertTime(%v, %d, %v) = %v, math.Max gives %v", m.Name, in.flops, in.bytes, first, got, want)
				}
			}
		}
		for _, m := range gpus {
			want := m.KernelLaunch + math.Max(in.flops/m.PeakFlops, float64(in.bytes)/m.MemBandwidth)
			if got := m.ExpertTime(in.flops, in.bytes); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("GPU %s ExpertTime(%v, %d) = %v, math.Max gives %v", m.Name, in.flops, in.bytes, got, want)
			}
		}
	}
}
