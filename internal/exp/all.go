package exp

import (
	"fmt"
	"io"
)

// Renderable is anything the harness can print (tables and figures).
type Renderable interface {
	Render(w io.Writer)
}

// Experiment pairs an identifier with its driver.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Params) Renderable
}

// Registry lists every reproducible table/figure, in paper order: the
// figure and ablation drivers, then the grid studies beyond the paper.
func Registry() []Experiment { return registry(new(headlines)) }

// headlines receives the two aggregates the paper's abstract quotes,
// folded from the Fig 7 and Fig 8 entries' own speedup columns.
type headlines struct{ prefill, decode float64 }

// registry is Registry with the Fig 7 and Fig 8 entries recording their
// mean speedups into h as they run.
func registry(h *headlines) []Experiment {
	return []Experiment{
		{"fig3a", "Activation frequency CDF (neurons vs experts)", func(p Params) Renderable { return Fig3a(p) }},
		{"fig3b", "Expert reuse probability by score rank", func(p Params) Renderable { return Fig3b(p) }},
		{"fig3c", "Prefill expert workload distribution", func(p Params) Renderable { return Fig3c(p) }},
		{"fig3d", "Existing frameworks across scenarios", func(p Params) Renderable { return Fig3d(p) }},
		{"fig3e", "Device time vs expert count", func(p Params) Renderable { return Fig3e() }},
		{"fig3f", "Device time vs workload size", func(p Params) Renderable { return Fig3f() }},
		{"fig7", "Prefill TTFT comparison", func(p Params) Renderable {
			t, speedups := Fig7(p)
			h.prefill = mean(speedups)
			return t
		}},
		{"fig8", "Decode TBT comparison", func(p Params) Renderable {
			t, speedups := Fig8(p)
			h.decode = mean(speedups)
			return t
		}},
		{"fig9", "Cache hit rate MRS vs LRU", func(p Params) Renderable { return Fig9(p) }},
		{"table3", "Ablation speedup breakdown", func(p Params) Renderable { return Table3(p) }},
		{"abl-topp", "MRS top-p width ablation", func(p Params) Renderable { return AblationMRSTopP(p) }},
		{"abl-window", "Prefetch lookahead window ablation", func(p Params) Renderable { return AblationLookahead(p) }},
		{"abl-prefetch", "Prefetch policy ablation", func(p Params) Renderable { return AblationPrefetchPolicy(p) }},
		{"abl-warmup", "CPU warm-up modelling ablation", func(p Params) Renderable { return AblationCPUWarmup(p) }},
		{"platform", "Laptop-class platform sweep", func(p Params) Renderable { return platformSweep(p) }},
		{"serving", "End-to-end mixed-corpus serving study", func(p Params) Renderable { return ServingStudy(p, 10, 0.25) }},
		{"serving-policy", "Request schedulers × SLO admission comparison", func(p Params) Renderable { return ServingPolicyStudy(p, 10, 0.25) }},
		{"batching", "Continuous-batching policies × concurrency", func(p Params) Renderable { return BatchingStudy(p, 12, 0.25) }},
		{"open-loop", "Open-loop Poisson arrivals × scheduler × batch former", func(p Params) Renderable { return OpenLoopStudy(p, 10, 0.25) }},
		{"placement", "Multi-GPU placement: topology × scheduler × cache ratio", func(p Params) Renderable { return placementStudy(p, 8) }},
		{"fleet", "Multi-replica fleet: routers × Poisson arrival rate", func(p Params) Renderable { return FleetStudy(p, 16, []int{2, 4}, 0.25) }},
		{"fleet-churn", "Fleet churn: stall/scale-up scenarios × router, recovery and re-warm cost", func(p Params) Renderable { return fleetChurnStudy(p, 24, 3, 0.25) }},
		{"disagg", "Disaggregated serving: pool split × arrival rate, TBT isolation vs migration cost", func(p Params) Renderable { return disaggStudy(p, 18, 0.25) }},
		{"precision", "INT4 vs INT8 offloading trade-off", func(p Params) Renderable { return precisionStudy(p) }},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// RunAll executes every registered experiment and writes the rendered
// results to w, separated by blank lines. It then prints the two
// headline aggregates the paper's abstract quotes, folded from the
// speedup columns Fig 7 and Fig 8 already computed.
func RunAll(w io.Writer, p Params) {
	var h headlines
	for _, e := range registry(&h) {
		e.Run(p).Render(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Headline: prefill speedup vs kTransformers = %.2fx (paper: 1.33x)\n", h.prefill)
	fmt.Fprintf(w, "Headline: decode  speedup vs kTransformers = %.2fx (paper: 1.70x)\n", h.decode)
	avg, worst := AblationGreedyVsExhaustive(200, p.Seed)
	fmt.Fprintf(w, "Scheduler quality: greedy/optimal makespan mean=%.3f worst=%.3f over 200 instances\n", avg, worst)
}
