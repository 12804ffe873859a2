package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
)

// churnTestRequests is the offered load churnTestShape's runs serve.
const churnTestRequests = 24

// churnTestShape mirrors fleetChurnStudy's calibration at the registry
// scale, so the assertions below guard the same numbers the rendered
// table reports.
func churnTestShape(t *testing.T, p Params) (stallAt float64, drive func(router string, opts ...cluster.Option) churnRun) {
	t.Helper()
	const replicas, ratio = 3, 0.25
	_, perReplica := calibrateFleet(p, churnTestRequests, ratio)
	rate := 1.2 * perReplica * replicas
	stream := studyRequests(p, churnTestRequests, rate)
	span := driveFleet(p, ratio, replicas, "round-robin", stream, nil).Makespan
	stallAt = 0.3 * span
	drive = func(router string, opts ...cluster.Option) churnRun {
		anchor := 0.0
		if len(opts) > 0 {
			anchor = stallAt
		}
		return driveChurn(p, ratio, replicas, router, stream, anchor, opts...)
	}
	return stallAt, drive
}

// TestFleetChurnStallRecovers pins the study's headline recovery claim
// for both contrasted routers: a mid-run stall displaces queued work
// (re-routed with original arrivals), nothing is silently dropped
// (completed + lost == offered, every re-routed request finishes), and
// aggregate goodput recovers — the post-recovery completion rate beats
// the outage-window rate, so the dip has positive depth.
func TestFleetChurnStallRecovers(t *testing.T) {
	p := QuickParams()
	stallAt, drive := churnTestShape(t, p)
	for _, router := range churnRouters {
		r := drive(router, cluster.WithFailure(1, stallAt, cluster.FailStall))
		if r.fleet.Rerouted == 0 {
			t.Errorf("%s: stall displaced no queued requests", router)
		}
		if r.Completed+r.fleet.Lost != churnTestRequests {
			t.Errorf("%s: completed %d + lost %d != offered %d",
				router, r.Completed, r.fleet.Lost, churnTestRequests)
		}
		if r.recoverAt == 0 {
			t.Errorf("%s: no re-routed request ever completed", router)
		}
		if r.recovery() <= 0 {
			t.Errorf("%s: recovery time %.3f not positive", router, r.recovery())
		}
		if r.dipDepth() <= 0 {
			t.Errorf("%s: goodput never recovered: dip depth %.3f (outage rate %.3f, post-recovery rate %.3f)",
				router, r.dipDepth(), r.dipRate, r.postRate)
		}
	}
}

// TestFleetChurnStandbyPaysRewarm pins the elasticity cost: a standby
// scale-up scheduled at the stall turns Serving before lease expiry
// re-routes the displaced queue, so the cold joiner serves real traffic
// under both routers — at a cache hit rate visibly below the warm
// fleet's. The two routers split the cold traffic differently (affinity
// chases the joiner's early clock harder than round-robin's blind
// rotation), which is the router contrast the rendered table carries.
func TestFleetChurnStandbyPaysRewarm(t *testing.T) {
	p := QuickParams()
	stallAt, drive := churnTestShape(t, p)
	runs := map[string]churnRun{}
	for _, router := range churnRouters {
		r := drive(router,
			cluster.WithFailure(1, stallAt, cluster.FailStall),
			cluster.WithScalePlan(cluster.ScaleEvent{At: stallAt, Delta: 1}))
		runs[router] = r
		if r.coldRouted == 0 {
			t.Errorf("%s: standby replica never served a request", router)
		}
		if r.coldHit >= r.warmHit {
			t.Errorf("%s: cold hit rate %.3f not below warm %.3f; re-warm cost invisible",
				router, r.coldHit, r.warmHit)
		}
		if r.Completed+r.fleet.Lost != churnTestRequests {
			t.Errorf("%s: completed %d + lost %d != offered %d",
				router, r.Completed, r.fleet.Lost, churnTestRequests)
		}
	}
	rr, aff := runs["round-robin"], runs["affinity"]
	if rr.coldRouted == aff.coldRouted && rr.coldHit == aff.coldHit {
		t.Errorf("routers split cold traffic identically (%d dispatches at hit %.3f); no contrast to render",
			rr.coldRouted, rr.coldHit)
	}
}

// TestFleetChurnSteadyIsQuiet pins the baseline row: with no churn
// configured the lifecycle layer stays silent — nothing re-routed,
// nothing lost, no dip, no recovery window — and every request lands.
func TestFleetChurnSteadyIsQuiet(t *testing.T) {
	p := QuickParams()
	_, drive := churnTestShape(t, p)
	for _, router := range churnRouters {
		r := drive(router)
		if r.fleet.Rerouted != 0 || r.fleet.Lost != 0 {
			t.Errorf("%s: steady run re-routed %d / lost %d", router, r.fleet.Rerouted, r.fleet.Lost)
		}
		if r.Completed != churnTestRequests {
			t.Errorf("%s: steady run completed %d of %d", router, r.Completed, churnTestRequests)
		}
		if r.dipDepth() != 0 || r.recovery() != 0 {
			t.Errorf("%s: steady run reports dip %.3f recovery %.3f",
				router, r.dipDepth(), r.recovery())
		}
	}
}

// TestFleetChurnStudyRendersEveryScenario checks the rendered table
// carries one row per scenario × router, so a scenario added to the
// grid cannot silently drop out of the study.
func TestFleetChurnStudyRendersEveryScenario(t *testing.T) {
	if testing.Short() {
		// The recovery/re-warm tests above cover the same drive path at
		// the same scale; the full 6-cell render is the long-mode check.
		t.Skip("full study render skipped in -short")
	}
	p := QuickParams()
	table := fleetChurnStudy(p, 24, 3, 0.25)
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, sc := range churnScenarios() {
		// Anchor to line starts: the table title also mentions "stall".
		if want, got := len(churnRouters), strings.Count(out, "\n"+sc.name+" "); got != want {
			t.Errorf("scenario %q appears %d times, want %d (one per router)\n%s",
				sc.name, got, want, out)
		}
	}
	for _, router := range churnRouters {
		if !strings.Contains(out, router) {
			t.Errorf("router %q missing from rendered table\n%s", router, out)
		}
	}
}
