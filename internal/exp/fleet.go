package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// FleetConcurrent is the per-replica session concurrency every fleet
// consumer uses, matching the open-loop study's serving shape.
const FleetConcurrent = 3

// fleetRun aggregates one replicas × router × arrival-rate serving run:
// the fold of its step events plus the dispatch spread.
type fleetRun struct {
	engine.Tally
	routed []int
}

// NewFleet assembles the fleet the fleet studies and examples/fleet
// share: n HybriMoE replicas on A6000-class boxes, seeded per replica
// from the base seed, steered by the named router. (hybrimoe serve and
// the benchmark's fleet workload build their own replicas from their
// own knobs.)
// Replicas beyond the initial n — born from a scale plan — are built
// with cache warm-up disabled, so a mid-run join pays the cold-cache
// re-warm cost the lifecycle model charges for elasticity.
func NewFleet(n int, routerName string, seed uint64, ratio float64,
	opts ...cluster.Option) (*cluster.Cluster, error) {
	build := func(i int) (*engine.Engine, error) {
		eopts := []engine.Option{
			engine.WithCacheRatio(ratio),
			engine.WithSeed(cluster.ReplicaSeed(seed, i)),
		}
		if i >= n {
			eopts = append(eopts, engine.WithWarmupIters(0))
		}
		return engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), eopts...)
	}
	opts = append([]cluster.Option{
		cluster.WithReplicas(n),
		cluster.WithRouter(routerName),
		cluster.WithBuilder(build),
		cluster.WithSeed(seed),
		cluster.WithMaxConcurrent(FleetConcurrent),
	}, opts...)
	return cluster.New(opts...)
}

// driveFleet serves reqs through a fresh n-replica fleet under the
// named router and optional fleet-level admission policy.
func driveFleet(p Params, ratio float64, n int, routerName string,
	reqs []workload.Request, adm engine.AdmissionPolicy) fleetRun {
	var opts []cluster.Option
	if adm != nil {
		opts = append(opts, cluster.WithAdmission(adm))
	}
	r, _ := serveFleet(p, ratio, n, routerName, reqs, nil, opts...)
	return r
}

// serveFleet serves reqs through a fresh n-replica study fleet and
// folds every step event into the returned run; observe, when non-nil,
// also sees every event, lifecycle records included. The drained
// cluster is returned for its counters.
func serveFleet(p Params, ratio float64, n int, routerName string, reqs []workload.Request,
	observe func(cluster.Event), opts ...cluster.Option) (fleetRun, *cluster.Cluster) {
	c, err := NewFleet(n, routerName, p.Seed, ratio, opts...)
	if err != nil {
		panic(err)
	}
	c.Submit(reqs...)
	var r fleetRun
	c.Run(func(ev cluster.Event) {
		if observe != nil {
			observe(ev)
		}
		if ev.Kind == cluster.EventStep {
			r.Add(ev.StepEvent)
		}
	})
	r.routed = c.Routed()
	return r, c
}

// fleetGuard builds the study's fleet-level SLO admission guard from a
// calibrated forward (unqueued) p95 TTFT: the budget sits 25% above it,
// so only fleet queueing can breach. Each run gets a fresh policy — the
// guard's quantiles are fleet-aggregate state that must not leak across
// rows.
func fleetGuard(forward float64) func() engine.AdmissionPolicy {
	return func() engine.AdmissionPolicy {
		return &engine.SLOAdmission{TTFTp95: 1.25 * forward, MinSamples: 2, ShedFactor: 1.5}
	}
}

// calibrateFleet serves a closed-loop stream of requests through one
// replica, the run that calibrates every fleet study: its completions
// per busy second give per-replica capacity, and its TTFTs the unqueued
// forward latency.
func calibrateFleet(p Params, requests int, ratio float64) (base fleetRun, perReplica float64) {
	base = driveFleet(p, ratio, 1, "round-robin", studyRequests(p, requests, 0), nil)
	return base, float64(base.Completed) / base.Makespan
}

// FleetStudy sweeps fleet size × router × Poisson arrival rate at equal
// per-replica hardware: every row serves the same request sequence
// through the same replicas, and only the dispatch policy differs. A
// single-replica closed-loop run calibrates per-replica capacity (the
// rate grid scales with fleet size) and the forward p95 anchoring the
// fleet-level SLO guard, the open-loop study's idiom lifted to the
// fleet. Reported per row: completions, shed fraction of offered load,
// goodput (completions per simulated second of makespan), p95
// queue-inclusive TTFT, the makespan itself, and the per-replica
// dispatch spread. The locality claim this table carries: at fleet
// scale (the 4-replica rows) affinity routing — steering load toward
// the replica whose cache shards are ready for their next iteration —
// meets or beats content-blind round-robin on goodput at every swept
// rate at equal hardware, because warm steps advance the fleet clock
// less and shed less under the same guard. With only two replicas the
// readiness signal has almost no choice to exploit and the routers
// mostly coincide. The calibration runs serially; then each (replicas,
// rate) pair draws its request stream once, shared read-only across
// that pair's router cells.
func FleetStudy(p Params, requests int, replicaCounts []int, ratio float64) *report.Table {
	base, perReplica := calibrateFleet(p, requests, ratio)
	adm := fleetGuard(base.TTFT.Stats().P95)

	var cells []Cell
	for _, n := range replicaCounts {
		for _, mult := range []float64{1.5, 4} {
			rate := mult * perReplica * float64(n)
			reqs := studyRequests(p, requests, rate)
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, func() []Row {
					r := driveFleet(p, ratio, n, routerName, reqs, adm())
					return []Row{{n, routerName, rate, r.Completed, r.ShedFraction(len(reqs)),
						r.Goodput(), r.TTFT.Stats().P95, r.Makespan, fmt.Sprint(r.routed)}}
				})
			}
		}
	}
	return tableFromCells("Fleet study: replicas × router × Poisson arrival rate (HybriMoE)",
		[]string{"replicas", "router", "rate(req/s)", "completed", "shed-fraction",
			"goodput(req/s)", "p95-TTFT(s)", "makespan(s)", "routed"}, runCells(cells))
}
