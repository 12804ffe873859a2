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
	// pools echoes the fleet's disaggregation spec (zero when unpooled)
	// so renders can break the dispatch spread down per pool.
	pools cluster.PoolSpec
}

// perPool renders the dispatch spread summed per pool role, the
// breakdown pooled study rows append.
func (r *fleetRun) perPool() string {
	var p, d, m int
	for i, n := range r.routed {
		switch r.pools.Role(i) {
		case cluster.RolePrefill:
			p += n
		case cluster.RoleDecode:
			d += n
		default:
			m += n
		}
	}
	return fmt.Sprintf("P:%d D:%d M:%d", p, d, m)
}

// NewFleet assembles the canonical fleet every consumer (the study, the
// CLI, the benchmark) shares: n HybriMoE replicas on A6000-class boxes,
// seeded per replica from the base seed, steered by the named router.
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

// workerOpts resolves Params.ClusterWorkers into cluster options — nil
// at 0/1 so serial-path configurations stay untouched.
func workerOpts(p Params) []cluster.Option {
	if p.ClusterWorkers > 1 {
		return []cluster.Option{cluster.WithWorkers(p.ClusterWorkers)}
	}
	return nil
}

// driveFleet serves reqs through a fresh n-replica fleet under the
// named router, optional fleet-level admission policy, and any further
// cluster options (pool specs, lifecycle knobs).
func driveFleet(p Params, ratio float64, n int, routerName string,
	reqs []workload.Request, adm engine.AdmissionPolicy, extra ...cluster.Option) fleetRun {
	var opts []cluster.Option
	if adm != nil {
		opts = append(opts, cluster.WithAdmission(adm))
	}
	r, _ := serveFleet(p, ratio, n, routerName, reqs, nil, append(opts, extra...)...)
	return r
}

// serveFleet serves reqs through a fresh n-replica study fleet (with
// Params.ClusterWorkers applied) and folds every step event into the
// returned run; observe, when non-nil, also sees every event, lifecycle
// records included. The drained cluster is returned for its counters.
func serveFleet(p Params, ratio float64, n int, routerName string, reqs []workload.Request,
	observe func(cluster.Event), opts ...cluster.Option) (fleetRun, *cluster.Cluster) {
	c, err := NewFleet(n, routerName, p.Seed, ratio, append(workerOpts(p), opts...)...)
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
	r.pools = c.Pools()
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

// fleetRequests draws the study's request stream: the mixed corpus with
// Poisson arrivals at rate (closed-loop when rate is 0 — the
// calibration shape). Only the arrival stamps vary with the rate.
func fleetRequests(p Params, requests int, rate float64) []workload.Request {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	if rate > 0 {
		stream.WithArrivals(workload.Poisson(rate))
	}
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, p.DecodeSteps)
	return reqs
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
// mostly coincide.
func FleetStudy(p Params, requests int, replicaCounts []int, ratio float64) *report.Table {
	return runTable(fleetStudy{requests: requests, replicaCounts: replicaCounts, ratio: ratio}, p)
}

// fleetStudy is FleetStudy as a runner-iterated grid: the
// single-replica calibration runs serially in Cells, then one cell per
// replicas × rate × router point. Each (replicas, rate) pair draws its
// request stream once, shared read-only across that pair's router
// cells. A pool spec (optional — the registry default is unpooled and
// renders exactly the historical table) splits every swept fleet into
// disaggregated pools and appends a per-pool dispatch-spread column.
type fleetStudy struct {
	requests      int
	replicaCounts []int
	ratio         float64
	pools         cluster.PoolSpec
}

// poolOpts converts the study's pool spec into cluster options (none
// when unpooled).
func poolOpts(spec cluster.PoolSpec) []cluster.Option {
	if !spec.Pooled() {
		return nil
	}
	return []cluster.Option{cluster.WithPools(spec)}
}

func (fleetStudy) ID() string       { return "fleet" }
func (fleetStudy) Describe() string { return "Multi-replica fleet: routers × Poisson arrival rate" }

func (s fleetStudy) Cells(p Params) []Cell {
	// Single-replica closed-loop calibration: capacity in completions
	// per busy second, and the unqueued forward p95 for the SLO target.
	base := driveFleet(p, s.ratio, 1, "round-robin", fleetRequests(p, s.requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	adm := fleetGuard(base.TTFT.Stats().P95)

	var cells []Cell
	for _, n := range s.replicaCounts {
		for _, mult := range []float64{1.5, 4} {
			rate := mult * perReplica * float64(n)
			reqs := fleetRequests(p, s.requests, rate)
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, Cell{
					Label: fmt.Sprintf("fleet/%dx/%s/%.3g", n, routerName, rate),
					Run: func() []Row {
						r := driveFleet(p, s.ratio, n, routerName, reqs, adm(), poolOpts(s.pools)...)
						row := Row{n, routerName, rate, r.Completed, r.ShedFraction(len(reqs)),
							r.Goodput(), r.TTFT.Stats().P95, r.Makespan, fmt.Sprint(r.routed)}
						if s.pools.Pooled() {
							row = append(row, r.perPool())
						}
						return []Row{row}
					},
				})
			}
		}
	}
	return cells
}

func (s fleetStudy) Render(_ Params, results [][]Row) Renderable {
	cols := []string{"replicas", "router", "rate(req/s)", "completed", "shed-fraction",
		"goodput(req/s)", "p95-TTFT(s)", "makespan(s)", "routed"}
	if s.pools.Pooled() {
		cols = append(cols, "per-pool")
	}
	return tableFromCells("Fleet study: replicas × router × Poisson arrival rate (HybriMoE)",
		cols, results)
}
