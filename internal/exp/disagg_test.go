package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
)

// TestDisaggIsolationAtSaturation pins the tentpole acceptance claim at
// the study's saturating rate: splitting the fleet into a 1:2
// prefill/decode disaggregation must drop p95 time-between-tokens below
// the mixed baseline even though every migrated KV working set pays the
// interconnect, and the migrated requests must land warm — the affinity
// router steers each handoff toward the decode replica already holding
// its experts, so the working-set admission finds non-zero residency.
func TestDisaggIsolationAtSaturation(t *testing.T) {
	p := QuickParams()
	const requests, ratio = 18, 0.25

	base := driveFleet(p, ratio, 1, "round-robin", fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	rate := 2.4 * perReplica * disaggReplicas
	reqs := fleetRequests(p, requests, rate)

	mixed := driveDisagg(p, ratio, disaggReplicas, reqs, cluster.PoolSpec{})
	split := driveDisagg(p, ratio, disaggReplicas, reqs, cluster.PoolSpec{Prefill: 1, Decode: 2})

	if mixed.Completed != requests || split.Completed != requests {
		t.Fatalf("completions mixed=%d split=%d, want %d each",
			mixed.Completed, split.Completed, requests)
	}
	if mixed.handoffs != 0 {
		t.Fatalf("mixed baseline migrated %d requests, want 0", mixed.handoffs)
	}
	if split.handoffs != requests {
		t.Fatalf("split migrated %d requests, want every one of %d", split.handoffs, requests)
	}
	if split.allExperts == 0 || split.warmExperts == 0 {
		t.Fatalf("migrated working sets landed cold: %d/%d experts warm",
			split.warmExperts, split.allExperts)
	}
	if split.Gap.Stats().P95 >= mixed.Gap.Stats().P95 {
		t.Errorf("disaggregated p95 inter-token gap %.4f did not beat mixed %.4f at rate %.2f",
			split.Gap.Stats().P95, mixed.Gap.Stats().P95, rate)
	}
}

// TestDisaggRenderAnchorsMixedDelta checks the isolation-delta column
// arithmetic on fabricated results: within each rate group the delta is
// the mixed row's p95 gap minus the row's own, so mixed anchors at zero
// and a split that halves the gap shows the saved seconds positively.
func TestDisaggRenderAnchorsMixedDelta(t *testing.T) {
	mk := func(pools string, gap float64) []Row {
		return []Row{{pools, 1.0, 9, 1.5, 0, 0.0, 0.1, gap, 2.0}}
	}
	results := [][]Row{
		mk("mixed", 0.5), mk("1:2", 0.25), mk("2:1", 0.75),
		mk("mixed", 4.0), mk("1:2", 2.0), mk("2:1", 8.0),
	}
	out := renderString(disaggStudy{}.Render(DefaultParams(), results))
	if !strings.Contains(out, "isolation-delta(s)") {
		t.Fatalf("render lost the isolation-delta column:\n%s", out)
	}
	for _, want := range []string{"0.25", "-0.25", "2", "-4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing expected delta %q:\n%s", want, out)
		}
	}
}

// TestDisaggStudyGridShape pins the grid: rate-major, config-minor with
// the mixed baseline leading every rate group — the order Render's
// delta anchoring depends on.
func TestDisaggStudyGridShape(t *testing.T) {
	cells := disaggStudy{requests: 4, ratio: 0.25}.Cells(QuickParams())
	group := len(disaggConfigs())
	if len(cells) != 2*group {
		t.Fatalf("%d cells, want %d (2 rates × %d configs)", len(cells), 2*group, group)
	}
	for i, c := range cells {
		wantMixed := i%group == 0
		isMixed := strings.Contains(c.Label, "/mixed/")
		if wantMixed != isMixed {
			t.Fatalf("cell %d label %q breaks the mixed-first group order", i, c.Label)
		}
	}
}

// TestFleetStudiesPerPoolColumn pins the opt-in breakdown satellite: the
// registry-default (unpooled) fleet and churn studies render their
// historical headers untouched, while a pooled spec appends the
// per-pool column and driveFleet's breakdown accounts for every
// dispatch — fresh prompts on the prefill pool, handoffs on decode.
func TestFleetStudiesPerPoolColumn(t *testing.T) {
	p := QuickParams()
	hdr := func(r Renderable) string { return renderString(r) }

	plain := hdr(fleetStudy{}.Render(p, nil)) + hdr(fleetChurnStudy{}.Render(p, nil))
	if strings.Contains(plain, "per-pool") {
		t.Fatalf("unpooled studies grew a per-pool column:\n%s", plain)
	}
	spec := cluster.PoolSpec{Prefill: 1, Decode: 2}
	pooled := hdr(fleetStudy{pools: spec}.Render(p, nil)) +
		hdr(fleetChurnStudy{pools: spec}.Render(p, nil))
	if strings.Count(pooled, "per-pool") != 2 {
		t.Fatalf("pooled studies did not both render the per-pool column:\n%s", pooled)
	}

	const requests = 8
	r := driveFleet(p, 0.25, 3, "affinity", fleetRequests(p, requests, 10), nil,
		cluster.WithPools(spec))
	if got, want := r.perPool(), "P:8 D:8 M:0"; got != want {
		t.Fatalf("perPool() = %q, want %q (every request dispatched to prefill then handed off)",
			got, want)
	}
}

// TestDisaggRunDerivedMetrics keeps warmFrac honest on its edges.
func TestDisaggRunDerivedMetrics(t *testing.T) {
	var zero disaggRun
	if zero.warmFrac() != 0 {
		t.Fatal("zero-value disaggRun must not divide by zero")
	}
	r := disaggRun{warmExperts: 3, allExperts: 4}
	if got := r.warmFrac(); got != 0.75 {
		t.Fatalf("warmFrac = %v, want 0.75", got)
	}
}
