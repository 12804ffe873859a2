package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
)

// TestFleetStudyAffinityMeetsRoundRobin pins the fleet study's headline
// claim at the acceptance shape: a 4-replica fleet at equal per-replica
// hardware, swept over the study's Poisson rate grid, where affinity
// routing must match or beat content-blind round-robin on aggregate
// goodput at every rate and strictly beat it at least once. The sweep
// mirrors FleetStudy's calibration exactly (single-replica closed-loop
// capacity and forward p95 anchoring the shared SLO guard) so the test
// guards the same numbers the rendered table reports.
func TestFleetStudyAffinityMeetsRoundRobin(t *testing.T) {
	p := QuickParams()
	const requests, replicas, ratio = 16, 4, 0.25

	base, perReplica := calibrateFleet(p, requests, ratio)
	guard := fleetGuard(base.TTFT.Stats().P95)

	strictly := false
	for _, mult := range []float64{1.5, 4} {
		rate := mult * perReplica * replicas
		reqs := studyRequests(p, requests, rate)
		aff := driveFleet(p, ratio, replicas, "affinity", reqs, guard())
		rr := driveFleet(p, ratio, replicas, "round-robin", reqs, guard())
		if aff.Goodput() < rr.Goodput() {
			t.Errorf("rate %.2f: affinity goodput %.3f < round-robin %.3f",
				rate, aff.Goodput(), rr.Goodput())
		}
		if aff.Goodput() > rr.Goodput() {
			strictly = true
		}
	}
	if !strictly {
		t.Error("affinity never strictly beat round-robin at any swept rate")
	}
}

// TestFleetStudyRendersEveryRouter checks the rendered table carries one
// row per registered router for every replicas × rate cell, so a router
// added to the registry cannot silently drop out of the study.
func TestFleetStudyRendersEveryRouter(t *testing.T) {
	p := QuickParams()
	table := FleetStudy(p, 8, []int{2}, 0.25)
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, name := range cluster.RouterNames() {
		if want, got := 2, strings.Count(out, name+" "); got != want {
			t.Errorf("router %q appears %d times, want %d (one per rate)\n%s",
				name, got, want, out)
		}
	}
}

// TestFleetRunDerivedMetrics keeps the fleet run's derived ratios
// honest, including a deadline violation that goodput must not count.
func TestFleetRunDerivedMetrics(t *testing.T) {
	r := fleetRun{Tally: engine.Tally{Completed: 7, Violated: 1, Shed: 2, Makespan: 3.0}}
	if got := r.ShedFraction(8); got != 0.25 {
		t.Fatalf("ShedFraction = %v, want 0.25", got)
	}
	if got := r.Goodput(); got != 2.0 {
		t.Fatalf("Goodput = %v, want 2.0", got)
	}
	var zero fleetRun
	if zero.ShedFraction(0) != 0 || zero.Goodput() != 0 || zero.DecodeThroughput() != 0 {
		t.Fatal("zero-value fleetRun must not divide by zero")
	}
}
