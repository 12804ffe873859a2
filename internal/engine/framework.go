// Package engine executes MoE inference end-to-end on the simulated
// platform: attention and shared experts on their device, routed experts
// through a pluggable scheduler, an expert cache with a pluggable
// replacement policy, and inter-layer prefetching in PCIe idle time. It
// measures the paper's two metrics — TTFT for prefill and TBT for
// decode — for the four compared frameworks, and serves request streams
// through the Session streaming loop.
package engine

// Framework bundles the policy choices that define one of the compared
// systems. Every strategy is named, resolved through the sched, prefetch
// and cache plugin registries at engine construction, so a framework
// description is pure data: third-party strategies drop in by calling
// the relevant Register and naming themselves here.
type Framework struct {
	Name string
	// Sched names the intra-layer scheduling strategy in the sched
	// registry (decode, and prefill unless PrefillSched overrides it).
	Sched string
	// PrefillSched, when non-empty, names a different strategy for the
	// prefill stage. kTransformers uses CPU expert computation only at
	// decode (paper Table I) and falls back to on-demand GPU loading for
	// prefill.
	PrefillSched string
	// Prefetch names the prefetcher: "none", "next-layer-topk" or
	// "impact-driven" among the built-ins.
	Prefetch string
	// CachePolicy names the replacement policy: "LRU", "LFU" or "MRS"
	// among the built-ins.
	CachePolicy string
	// OnMissInsert enables background insertion of missed experts into
	// the cache using idle PCIe time (how static-scheduler frameworks
	// refresh their cache between iterations).
	OnMissInsert bool
	// PinWarm pins the warm-started experts permanently, modelling a
	// truly static frequency-based placement. Layer-mapped frameworks
	// have no expert cache to pin.
	PinWarm bool
	// LayerMapped marks frameworks whose expert residency is a static
	// whole-layer mapping (llama.cpp -ngl): the leading layers live
	// wholly on the GPU, the expert cache and its warm-up are bypassed,
	// and CPU layers run attention on the CPU too.
	LayerMapped bool
}

// Built-in scheduler registry names.
const (
	SchedHybriMoE     = "hybrimoe"
	SchedKTransStatic = "ktrans-static"
	SchedGPUCentric   = "gpu-centric"
	SchedStaticSplit  = "static-split"
)

// HybriMoEFramework is the paper's full system: dynamic hybrid
// scheduling, impact-driven prefetching, MRS caching.
func HybriMoEFramework() Framework {
	return Framework{
		Name:        "HybriMoE",
		Sched:       SchedHybriMoE,
		Prefetch:    "impact-driven",
		CachePolicy: "MRS",
	}
}

// KTransformersFramework is the primary baseline: a fixed mapping by
// historical activation frequency (pinned GPU experts, no dynamic
// remapping — paper Table I), CPU expert computation at decode, and
// on-demand GPU loading at prefill.
func KTransformersFramework() Framework {
	return Framework{
		Name:         "KTransformers",
		Sched:        SchedKTransStatic,
		PrefillSched: SchedGPUCentric,
		Prefetch:     "none",
		CachePolicy:  "LFU",
		PinWarm:      true,
	}
}

// AdapMoEFramework is the GPU-centric baseline: on-demand loading with
// adaptive (next-layer) prefetching and LRU caching.
func AdapMoEFramework() Framework {
	return Framework{
		Name:        "AdapMoE",
		Sched:       SchedGPUCentric,
		Prefetch:    "next-layer-topk",
		CachePolicy: "LRU",
	}
}

// LlamaCppFramework is the static layer-split baseline: the leading
// layers live wholly on the GPU, the rest (attention included) on the
// CPU.
func LlamaCppFramework() Framework {
	return Framework{
		Name:        "llama.cpp",
		Sched:       SchedStaticSplit,
		Prefetch:    "none",
		CachePolicy: "LRU",
		LayerMapped: true,
	}
}

// AllFrameworks returns the four compared systems in the paper's legend
// order.
func AllFrameworks() []Framework {
	return []Framework{
		LlamaCppFramework(),
		AdapMoEFramework(),
		KTransformersFramework(),
		HybriMoEFramework(),
	}
}

// AblationFrameworks returns the Table III variants built on the
// kTransformers baseline: individual techniques enabled one at a time,
// then all together.
//
//   - +Scheduling swaps in the dynamic hybrid scheduler (whose
//     transfers make the cache dynamic, so the pin is lifted);
//   - +Prefetching adds impact-driven prefetching on the static
//     mapping;
//   - +Caching enables dynamic score-aware cache management (MRS with
//     background refresh of missed experts).
func AblationFrameworks() []Framework {
	base := KTransformersFramework()
	base.Name = "Baseline"

	schedOnly := base
	schedOnly.Name = "Baseline+Scheduling"
	schedOnly.Sched = SchedHybriMoE
	schedOnly.PrefillSched = ""
	schedOnly.PinWarm = false

	prefOnly := base
	prefOnly.Name = "Baseline+Prefetching"
	prefOnly.Prefetch = "impact-driven"
	prefOnly.PinWarm = false

	cacheOnly := base
	cacheOnly.Name = "Baseline+Caching"
	cacheOnly.CachePolicy = "MRS"
	cacheOnly.OnMissInsert = true
	cacheOnly.PinWarm = false

	all := HybriMoEFramework()
	all.Name = "All"

	return []Framework{base, schedOnly, prefOnly, cacheOnly, all}
}
