package hw

import "fmt"

// Presets approximate the paper's testbed and a smaller edge device. The
// absolute constants are published datasheet/benchmark figures derated to
// sustained values; the reproduction targets relative behaviour (who
// wins, by what factor), which depends on the ratios rather than the
// absolute magnitudes.

// a6000GPU is the cost model of one RTX A6000 card.
func a6000GPU() GPUModel {
	return GPUModel{
		Name: "rtx-a6000",
		// Sustained INT4 tensor-core throughput (derated from the
		// ~309 TOPS marketing peak).
		PeakFlops: 1.0e14,
		// GDDR6 ~768 GB/s, derated to sustained.
		MemBandwidth: 6.0e11,
		KernelLaunch: 2.2e-5,
	}
}

// pcie4x16 is the host link one A6000 hangs off.
func pcie4x16() LinkModel {
	return LinkModel{
		Name: "pcie4x16",
		// ~32 GB/s theoretical, ~16-18 GB/s sustained for pinned
		// host-to-device copies.
		BytesPerSec: 1.6e10,
		Latency:     1.5e-5,
	}
}

// rdma100g is the replica-to-replica interconnect of the A6000-class
// presets: a 100 Gb/s RDMA fabric derated to sustained GPUDirect
// throughput, pricing KV-cache migration at prefill→decode handoffs.
func rdma100g() LinkModel {
	return LinkModel{
		Name:        "rdma-100g",
		BytesPerSec: 1.1e10,
		Latency:     5e-6,
	}
}

// A6000Platform models the paper's evaluation platform: an NVIDIA RTX
// A6000 (PCIe 4.0 x16) paired with an Intel Xeon Gold 5220R restricted
// to 10 cores, running INT4 (Marlin / llama.cpp) expert kernels.
func A6000Platform() *Platform {
	return &Platform{
		Name: "a6000-xeon5220r",
		CPU: CPUModel{
			Name: "xeon-gold-5220r-10c",
			// 10 cores of llama.cpp-style INT4 GEMM sustain roughly
			// 20 GFLOP/s/core once dequantization overhead is counted.
			PeakFlops: 2.2e11,
			// Effective weight-streaming bandwidth of the 10-core
			// cgroup running quantized GEMV (dequantization and
			// scattered group access cut well below STREAM numbers).
			MemBandwidth:   18e9,
			ExpertOverhead: 25e-6,
			// Cold-cache penalty on the first expert of a burst,
			// Figure 3(e): roughly one extra expert-GEMV worth of time.
			WarmupPenalty: 180e-6,
		},
		GPUs:         []GPUModel{a6000GPU()},
		Links:        []LinkModel{pcie4x16()},
		Interconnect: rdma100g(),
	}
}

// MultiA6000Platform scales the A6000 testbed to n GPUs, each with its
// own PCIe 4.0 x16 host link (host lane contention between cards is not
// modelled — each link sustains its full bandwidth). n = 1 is exactly
// A6000Platform. It panics on a non-positive count.
func MultiA6000Platform(n int) *Platform {
	if n < 1 {
		panic("hw: MultiA6000Platform needs at least one GPU")
	}
	p := A6000Platform()
	if n == 1 {
		return p
	}
	p.Name = fmt.Sprintf("a6000x%d-xeon5220r", n)
	p.GPUs = make([]GPUModel, n)
	p.Links = make([]LinkModel, n)
	for i := 0; i < n; i++ {
		p.GPUs[i] = a6000GPU()
		p.Links[i] = pcie4x16()
	}
	return p
}

// LaptopPlatform models a smaller edge deployment (mobile GPU over PCIe
// 4.0 x8, 6 performance cores). Used by scalability tests.
func LaptopPlatform() *Platform {
	return &Platform{
		Name: "laptop-rtx4060m",
		CPU: CPUModel{
			Name:           "mobile-6c",
			PeakFlops:      1.2e11,
			MemBandwidth:   12e9,
			ExpertOverhead: 30e-6,
			WarmupPenalty:  220e-6,
		},
		GPUs: []GPUModel{{
			Name:         "rtx4060m",
			PeakFlops:    1.8e13,
			MemBandwidth: 2.56e11,
			KernelLaunch: 2.5e-5,
		}},
		Links: []LinkModel{{
			Name:        "pcie4x8",
			BytesPerSec: 8e9,
			Latency:     2e-5,
		}},
		// Edge boxes pair over commodity 10 GbE rather than RDMA.
		Interconnect: LinkModel{
			Name:        "10gbe",
			BytesPerSec: 1.1e9,
			Latency:     4e-5,
		},
	}
}

// UnitPlatform is a synthetic platform with round numbers used by unit
// tests and by the paper's Figure 5 walk-through, where GPU compute is 1
// time unit per expert regardless of load, CPU compute is 1 unit per
// unit of load, and a transfer costs exactly 3 units. Loads are encoded
// as FLOPs with PeakFlops 1 so "load 4" takes 4 seconds on the CPU.
func UnitPlatform() *Platform {
	return &Platform{
		Name: "unit",
		CPU: CPUModel{
			Name:         "unit-cpu",
			PeakFlops:    1,
			MemBandwidth: 1e18, // never memory-bound
		},
		GPUs: []GPUModel{{
			Name:         "unit-gpu",
			PeakFlops:    1e18, // compute time ~0
			MemBandwidth: 1e18,
			KernelLaunch: 1, // exactly 1 unit per expert
		}},
		Links: []LinkModel{{
			Name:        "unit-link",
			BytesPerSec: 1.0 / 3.0, // 1 byte := one expert, 3 units each
			Latency:     0,
		}},
		Interconnect: LinkModel{
			Name:        "unit-interconnect",
			BytesPerSec: 1, // 1 unit per byte migrated
			Latency:     0,
		},
	}
}
