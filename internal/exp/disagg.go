package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// disaggRun extends fleetRun with the stage-split accounting a
// disaggregation run produces: how many requests migrated, how warm the
// priced working set landed, and the inter-token gap distribution the
// interference claim is judged on.
type disaggRun struct {
	fleetRun
	fleet cluster.Metrics
}

// warmFrac is the fraction of migrated working-set experts already
// resident on the adopting decode replica (0 when nothing migrated).
func (r disaggRun) warmFrac() float64 {
	if r.fleet.MigratedExperts == 0 {
		return 0
	}
	return float64(r.fleet.WarmExperts) / float64(r.fleet.MigratedExperts)
}

// driveDisagg serves reqs through an n-replica affinity-routed fleet
// under the given pool spec (zero spec = the mixed baseline), measuring
// time-between-tokens as the per-request inter-token gap stream rather
// than raw step latency: a decode step that waited behind a neighbour's
// long prefill shows up as a stretched gap even though the step itself
// was cheap, which is exactly the interference disaggregation removes.
func driveDisagg(p Params, ratio float64, n int, reqs []workload.Request,
	spec cluster.PoolSpec) disaggRun {
	run, c := serveFleet(p, ratio, n, "affinity", reqs, nil, cluster.WithPools(spec))
	return disaggRun{fleetRun: run, fleet: c.Metrics()}
}

// disaggConfigs is the pool grid the study contrasts, mixed baseline
// first in each rate group so disaggTable can anchor the isolation
// delta.
func disaggConfigs() []cluster.PoolSpec {
	return []cluster.PoolSpec{
		{},                      // mixed: every replica serves both stages
		{Prefill: 1, Decode: 2}, // decode-heavy split
		{Prefill: 2, Decode: 1}, // prefill-heavy split
	}
}

// disaggStudy sweeps pool split × Poisson arrival rate on a fixed
// 3-replica fleet, contrasting mixed colocation against prefill/decode
// disaggregation with priced working-set migration. The serial
// prologue calibrates per-replica capacity closed-loop, then sweeps
// {mixed, 1:2, 2:1} pool splits across two Poisson rates (moderate and
// saturating multiples of aggregate capacity), every cell serving the
// same per-rate request stream through the same three replicas under
// the affinity router. Reported per row: completions, goodput,
// handoffs with the warm fraction of their migrated working sets,
// queue-inclusive p95 TTFT, p95 inter-token gap (TBT — first gap
// anchored at prefill completion so the priced migration transfer is
// charged, not hidden), the isolation delta (mixed p95 gap minus this
// row's, within the rate group), and makespan. The claim this table
// carries: at saturating load a pool split keeps decode replicas free
// of long-prompt prefill steps, so p95 TBT drops below the mixed
// baseline even after paying the interconnect for every migrated KV
// working set — while mixed keeps the edge on TTFT because prefills
// spread over all three boxes. Disaggregation buys steady token
// cadence with prefill throughput, the trade the paper's serving
// problem turns on.
func disaggStudy(p Params, requests int, ratio float64) *report.Table {
	_, perReplica := calibrateFleet(p, requests, ratio)

	// Rate-major, config-minor grid (mixed first per rate) — disaggTable
	// leans on this order to pair each split with its mixed baseline.
	var cells []Cell
	for _, mult := range []float64{1.2, 2.4} {
		rate := mult * perReplica * disaggReplicas
		reqs := studyRequests(p, requests, rate)
		for _, spec := range disaggConfigs() {
			cells = append(cells, func() []Row {
				r := driveDisagg(p, ratio, disaggReplicas, reqs, spec)
				return []Row{{spec.String(), rate, r.Completed, r.Goodput(),
					r.fleet.Handoffs, r.warmFrac(), r.TTFT.Stats().P95, r.Gap.Stats().P95,
					r.Makespan}}
			})
		}
	}
	return disaggTable(runCells(cells))
}

// disaggReplicas is the fixed fleet size the split grid divides.
const disaggReplicas = 3

// disaggGapCol is the p95 inter-token-gap column index in the rows
// disaggStudy's cells emit, which disaggTable reads back to compute
// isolation deltas.
const disaggGapCol = 7

// disaggTable renders the split grid's slotted rows, inserting after the
// p95 gap each row's isolation delta against the mixed row that leads
// its rate group.
func disaggTable(results [][]Row) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Disaggregation study: pool split × Poisson rate, %d replicas (affinity router, priced KV migration)", disaggReplicas),
		"pools", "rate(req/s)", "completed", "goodput(req/s)", "handoffs",
		"warm-frac", "p95-TTFT(s)", "p95-gap(s)", "isolation-delta(s)", "makespan(s)")
	group := len(disaggConfigs())
	for i, rows := range results {
		mixed := results[i-i%group][0][disaggGapCol].(float64)
		for _, r := range rows {
			delta := mixed - r[disaggGapCol].(float64)
			out := append(append(Row{}, r[:disaggGapCol+1]...), delta)
			out = append(out, r[disaggGapCol+1:]...)
			t.AddRow(out...)
		}
	}
	return t
}
