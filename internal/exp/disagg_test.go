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

	_, perReplica := calibrateFleet(p, requests, ratio)
	rate := 2.4 * perReplica * disaggReplicas
	reqs := studyRequests(p, requests, rate)

	mixed := driveDisagg(p, ratio, disaggReplicas, reqs, cluster.PoolSpec{})
	split := driveDisagg(p, ratio, disaggReplicas, reqs, cluster.PoolSpec{Prefill: 1, Decode: 2})

	if mixed.Completed != requests || split.Completed != requests {
		t.Fatalf("completions mixed=%d split=%d, want %d each",
			mixed.Completed, split.Completed, requests)
	}
	if mixed.fleet.Handoffs != 0 {
		t.Fatalf("mixed baseline migrated %d requests, want 0", mixed.fleet.Handoffs)
	}
	if split.fleet.Handoffs != requests {
		t.Fatalf("split migrated %d requests, want every one of %d", split.fleet.Handoffs, requests)
	}
	if split.fleet.MigratedExperts == 0 || split.fleet.WarmExperts == 0 {
		t.Fatalf("migrated working sets landed cold: %d/%d experts warm",
			split.fleet.WarmExperts, split.fleet.MigratedExperts)
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
	out := renderString(disaggTable(results))
	if !strings.Contains(out, "isolation-delta(s)") {
		t.Fatalf("render lost the isolation-delta column:\n%s", out)
	}
	for _, want := range []string{"0.25", "-0.25", "2", "-4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing expected delta %q:\n%s", want, out)
		}
	}
}

// TestDisaggStudyGridShape pins the grid through its rendering:
// rate-major, config-minor, with the mixed baseline leading every rate
// group at an isolation delta of zero — the order disaggTable's delta
// anchoring depends on.
func TestDisaggStudyGridShape(t *testing.T) {
	var csv strings.Builder
	disaggStudy(QuickParams(), 4, 0.25).RenderCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	header, rows := strings.Split(lines[0], ","), lines[1:]
	group := len(disaggConfigs())
	if len(rows) != 2*group {
		t.Fatalf("%d rows, want %d (2 rates × %d configs):\n%s", len(rows), 2*group, group, csv.String())
	}
	if header[disaggGapCol+1] != "isolation-delta(s)" {
		t.Fatalf("column %d is %q, want the isolation delta", disaggGapCol+1, header[disaggGapCol+1])
	}
	seen := map[string]bool{}
	for i, line := range rows {
		fields := strings.Split(line, ",")
		if i%group == 0 {
			clear(seen)
			if fields[0] != "mixed" {
				t.Fatalf("row %d leads its rate group with %q, want mixed", i, fields[0])
			}
			if fields[disaggGapCol+1] != "0" {
				t.Fatalf("mixed row %d has isolation delta %s, want 0", i, fields[disaggGapCol+1])
			}
		} else if fields[0] == "mixed" {
			t.Fatalf("row %d is a second mixed row in its rate group", i)
		}
		if seen[fields[0]] {
			t.Fatalf("row %d repeats pool split %q in its rate group", i, fields[0])
		}
		seen[fields[0]] = true
	}
}

// TestDisaggRunDerivedMetrics keeps warmFrac honest on its edges.
func TestDisaggRunDerivedMetrics(t *testing.T) {
	var zero disaggRun
	if zero.warmFrac() != 0 {
		t.Fatal("zero-value disaggRun must not divide by zero")
	}
	r := disaggRun{fleet: cluster.Metrics{WarmExperts: 3, MigratedExperts: 4}}
	if got := r.warmFrac(); got != 0.75 {
		t.Fatalf("warmFrac = %v, want 0.75", got)
	}
}
