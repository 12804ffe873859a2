// Package hw models the heterogeneous hardware the paper evaluates on —
// GPU, CPU and the PCIe link between them — as analytic cost models with
// the empirical shapes reported in the paper's motivation study
// (Figure 3(e)/(f)):
//
//   - GPU expert time is nearly flat in per-expert workload (kernel
//     launch + weight streaming dominate) and linear in the number of
//     experts;
//   - CPU expert time grows linearly with workload, with the first
//     expert of a consecutive CPU burst paying a cache warm-up penalty
//     and subsequent experts benefiting from warm caches;
//   - PCIe transfer time per expert is effectively constant (bytes /
//     bandwidth + latency).
//
// The models are either taken from platform presets (A6000-class,
// laptop-class) or fitted by the calibration warm-up phase from real
// kernel timings (see Calibrate*), mirroring the warm-up phase HybriMoE
// runs before inference.
package hw

import "fmt"

// Device identifies a compute resource in schedules and traces. The
// CPU pool is the single negative value; every non-negative value
// indexes a GPU in the platform's GPUs slice, so the zero value is GPU0
// and single-GPU code keeps working untouched on N-device platforms.
type Device int

// CPU is the host CPU pool.
const CPU Device = -1

// GPU is the first (and on single-GPU platforms, only) accelerator —
// device GPU0. Multi-GPU code addresses the others through GPUAt.
const GPU Device = 0

// GPUAt returns the device identity of the i-th GPU. It panics on a
// negative index: that is a programming error, not a topology question.
func GPUAt(i int) Device {
	if i < 0 {
		panic(fmt.Sprintf("hw: GPUAt(%d) with negative index", i))
	}
	return Device(i)
}

// GPUIndex returns the device's position in Platform.GPUs. It panics
// for the CPU, which has no such index.
func (d Device) GPUIndex() int {
	if d < 0 {
		panic(fmt.Sprintf("hw: GPUIndex of non-GPU device %v", d))
	}
	return int(d)
}

// String names the device: "CPU", "GPU0", "GPU1", …
func (d Device) String() string {
	if d == CPU {
		return "CPU"
	}
	return fmt.Sprintf("GPU%d", int(d))
}

// CPUModel is the analytic cost model for the host CPU pool executing
// expert kernels (llama.cpp-style INT4 GEMV/GEMM across a fixed number
// of cores).
type CPUModel struct {
	Name string
	// PeakFlops is the sustained aggregate floating-point throughput in
	// FLOP/s across the cores dedicated to expert execution.
	PeakFlops float64
	// MemBandwidth is the sustainable weight-streaming bandwidth in
	// bytes/s; single-token GEMV is bound by it.
	MemBandwidth float64
	// ExpertOverhead is the fixed per-expert dispatch cost in seconds.
	ExpertOverhead float64
	// WarmupPenalty is added to the first expert of a consecutive CPU
	// burst (cold caches), matching Figure 3(e).
	WarmupPenalty float64
}

// ExpertTime predicts seconds to execute one expert with the given FLOP
// count and weight footprint. first marks the first expert of a burst.
func (m CPUModel) ExpertTime(flops float64, bytes int64, first bool) float64 {
	t := m.ExpertOverhead + max(flops/m.PeakFlops, float64(bytes)/m.MemBandwidth)
	if first {
		t += m.WarmupPenalty
	}
	return t
}

// Validate reports an error when any parameter is non-positive where it
// must be positive.
func (m CPUModel) Validate() error {
	if m.PeakFlops <= 0 || m.MemBandwidth <= 0 {
		return fmt.Errorf("hw: CPU model %q needs positive throughputs", m.Name)
	}
	if m.ExpertOverhead < 0 || m.WarmupPenalty < 0 {
		return fmt.Errorf("hw: CPU model %q has negative overheads", m.Name)
	}
	return nil
}

// GPUModel is the analytic cost model for the accelerator.
type GPUModel struct {
	Name string
	// PeakFlops is the sustained throughput for quantized expert GEMMs.
	PeakFlops float64
	// MemBandwidth is device memory bandwidth in bytes/s; small-batch
	// expert kernels are bound by weight reads.
	MemBandwidth float64
	// KernelLaunch is the fixed per-kernel dispatch cost in seconds,
	// which dominates small workloads and makes GPU time ~flat in token
	// count (Figure 3(f)).
	KernelLaunch float64
}

// ExpertTime predicts seconds for one expert kernel on the GPU.
func (m GPUModel) ExpertTime(flops float64, bytes int64) float64 {
	return m.KernelLaunch + max(flops/m.PeakFlops, float64(bytes)/m.MemBandwidth)
}

// Validate reports an error for non-physical parameters.
func (m GPUModel) Validate() error {
	if m.PeakFlops <= 0 || m.MemBandwidth <= 0 {
		return fmt.Errorf("hw: GPU model %q needs positive throughputs", m.Name)
	}
	if m.KernelLaunch < 0 {
		return fmt.Errorf("hw: GPU model %q has negative launch cost", m.Name)
	}
	return nil
}

// LinkModel is the CPU→GPU interconnect (PCIe) cost model.
type LinkModel struct {
	Name string
	// BytesPerSec is effective unidirectional bandwidth.
	BytesPerSec float64
	// Latency is the fixed per-transfer setup cost in seconds.
	Latency float64
}

// TransferTime predicts seconds to move bytes across the link.
func (m LinkModel) TransferTime(bytes int64) float64 {
	return m.Latency + float64(bytes)/m.BytesPerSec
}

// Validate reports an error for non-physical parameters.
func (m LinkModel) Validate() error {
	if m.BytesPerSec <= 0 {
		return fmt.Errorf("hw: link model %q needs positive bandwidth", m.Name)
	}
	if m.Latency < 0 {
		return fmt.Errorf("hw: link model %q has negative latency", m.Name)
	}
	return nil
}

// Platform bundles the resources the scheduler reasons about: one CPU
// pool, N GPUs, and one host link per GPU (Links[i] feeds GPUs[i]).
// Single-GPU platforms are the len-1 degenerate case; the historical
// Platform.GPU/Link fields became GPUs[0]/Links[0].
type Platform struct {
	Name  string
	CPU   CPUModel
	GPUs  []GPUModel
	Links []LinkModel
	// Interconnect is the replica-to-replica link (NVLink/RDMA-class)
	// that prices working-set migration at a prefill→decode handoff —
	// the GPU↔GPU analogue of the per-GPU host Links. The zero value
	// means the platform has none: disaggregated pools require it, and
	// Validate checks it only when set (HasInterconnect).
	Interconnect LinkModel
}

// HasInterconnect reports whether the platform models a
// replica-to-replica link. The zero-value LinkModel means absent.
func (p *Platform) HasInterconnect() bool {
	return p.Interconnect != (LinkModel{})
}

// Topology describes the device graph shape: how many GPUs the platform
// carries and how many host links feed them.
type Topology struct {
	GPUs  int
	Links int
}

// Validate reports an error for a malformed topology: no GPUs, or a
// link count that does not pair one host link with each GPU.
func (t Topology) Validate() error {
	if t.GPUs < 1 {
		return fmt.Errorf("hw: topology needs at least one GPU, have %d", t.GPUs)
	}
	if t.Links != t.GPUs {
		return fmt.Errorf("hw: topology has %d links for %d GPUs (want one per GPU)", t.Links, t.GPUs)
	}
	return nil
}

// Topology reports the platform's device-graph shape.
func (p *Platform) Topology() Topology {
	return Topology{GPUs: len(p.GPUs), Links: len(p.Links)}
}

// NumGPUs reports how many GPUs the platform carries.
func (p *Platform) NumGPUs() int { return len(p.GPUs) }

// LinkOf returns the host link feeding device d. It panics for the CPU
// or an out-of-range device — both scheduler bugs.
func (p *Platform) LinkOf(d Device) LinkModel {
	i := d.GPUIndex()
	if i >= len(p.Links) {
		panic(fmt.Sprintf("hw: platform %q has %d links, no link for %v", p.Name, len(p.Links), d))
	}
	return p.Links[i]
}

// Validate checks the topology and every component model.
func (p *Platform) Validate() error {
	if err := p.Topology().Validate(); err != nil {
		return fmt.Errorf("hw: platform %q: %w", p.Name, err)
	}
	if err := p.CPU.Validate(); err != nil {
		return err
	}
	for _, g := range p.GPUs {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	for _, l := range p.Links {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	if p.HasInterconnect() {
		if err := p.Interconnect.Validate(); err != nil {
			return err
		}
	}
	return nil
}
