package cluster

import (
	"reflect"
	"testing"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/workload"
)

// admitNone sheds every request at the fleet door.
type admitNone struct{}

func (admitNone) Name() string { return "admit-none" }
func (admitNone) Decide(workload.Request, engine.SLOSnapshot) engine.AdmissionDecision {
	return engine.AdmissionShed
}

// churnCluster builds the scenario the lifecycle tests share: replicas
// on derived seeds, round-robin routing unless overridden, and a route
// log wide enough to audit every dispatch.
func churnCluster(t *testing.T, seed uint64, n int, extra ...Option) *Cluster {
	t.Helper()
	opts := append([]Option{
		WithReplicas(n),
		WithBuilder(buildReplica(t, seed)),
		WithSeed(seed),
		WithMaxConcurrent(2),
		WithRouteLog(256),
	}, extra...)
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lifeEvents partitions a run's event stream by kind.
func lifeEvents(evs []Event) map[EventKind][]Event {
	out := map[EventKind][]Event{}
	for _, ev := range evs {
		out[ev.Kind] = append(out[ev.Kind], ev)
	}
	return out
}

// TestClusterHardDeathReroutes pins the reclaim path: a hard-killed
// replica dies at the failure instant, its queued un-emitted requests
// re-enter the dispatch queue with their original arrivals (one
// Rerouted event each), started in-flight work is lost, and every
// request is either completed or lost — nothing vanishes silently.
func TestClusterHardDeathReroutes(t *testing.T) {
	const seed, offered, rate = 700, 18, 12.0
	const deadAt = 0.2
	c := churnCluster(t, seed, 3, WithFailure(1, deadAt, FailDeath))
	reqs := burstRequests(seed, offered, rate)
	arrivals := map[int]float64{}
	for _, r := range reqs {
		arrivals[r.ID] = r.Arrival
	}
	c.Submit(reqs...)

	var evs []Event
	done := map[int]bool{}
	c.Run(func(ev Event) {
		evs = append(evs, ev)
		if ev.Kind == EventStep && ev.Done {
			done[ev.Request] = true
		}
	})
	byKind := lifeEvents(evs)

	deaths := byKind[EventReplicaDead]
	if len(deaths) != 1 {
		t.Fatalf("%d ReplicaDead events, want 1", len(deaths))
	}
	if deaths[0].Replica != 1 || deaths[0].End != deadAt {
		t.Fatalf("death event %+v, want replica 1 at t=%g", deaths[0], deadAt)
	}
	if c.State(1) != StateDead {
		t.Fatalf("replica 1 in state %v after death", c.State(1))
	}
	if int(deaths[0].Tokens) != c.Lost() {
		t.Fatalf("death event carries %d lost, counter says %d", deaths[0].Tokens, c.Lost())
	}

	reroutes := byKind[EventRerouted]
	if len(reroutes) != c.Rerouted() {
		t.Fatalf("%d Rerouted events but Rerouted() = %d", len(reroutes), c.Rerouted())
	}
	for _, ev := range reroutes {
		if ev.Replica != 1 {
			t.Fatalf("re-route off replica %d, only 1 died: %+v", ev.Replica, ev)
		}
		if ev.Arrival != arrivals[ev.Request] {
			t.Fatalf("re-routed request %d lost its original arrival: %+v", ev.Request, ev)
		}
	}

	if got := len(done) + c.Lost(); got != offered {
		t.Fatalf("completed %d + lost %d ≠ offered %d", len(done), c.Lost(), offered)
	}
	if c.Lost() == 0 && c.Rerouted() == 0 {
		t.Fatal("death at mid-burst touched no requests; scenario too tame to test anything")
	}

	// The dead replica must receive nothing after the failure instant.
	for _, rec := range c.RouteLog() {
		if rec.Replica == 1 && rec.At >= deadAt {
			t.Fatalf("dispatched to dead replica 1 at t=%g", rec.At)
		}
		if rec.Rerouted && rec.Replica == 1 {
			t.Fatalf("re-dispatched a reclaimed request back to the dead replica: %+v", rec)
		}
	}
}

// TestClusterStallDetectedByLease pins the silent-failure path: a
// stalled replica keeps receiving dispatches (the fleet cannot see a
// silent stall) until its lease expires, at which point it is declared
// dead strictly later than the stall instant, its queue re-routes, and
// the surviving fleet drains everything that wasn't in flight.
func TestClusterStallDetectedByLease(t *testing.T) {
	const seed, offered, rate = 710, 18, 12.0
	const stallAt = 0.2
	c := churnCluster(t, seed, 3, WithFailure(1, stallAt, FailStall))
	c.Submit(burstRequests(seed, offered, rate)...)

	var evs []Event
	done := map[int]bool{}
	c.Run(func(ev Event) {
		evs = append(evs, ev)
		if ev.Kind == EventStep && ev.Done {
			done[ev.Request] = true
		}
	})
	byKind := lifeEvents(evs)

	deaths := byKind[EventReplicaDead]
	if len(deaths) != 1 {
		t.Fatalf("%d ReplicaDead events, want 1", len(deaths))
	}
	detectAt := deaths[0].End
	if detectAt <= stallAt+DefaultLeaseTTL*0.99 {
		t.Fatalf("detection at t=%g, want at least a lease TTL after the stall at %g", detectAt, stallAt)
	}
	if detectAt > stallAt+DefaultLeaseTTL*1.3 {
		t.Fatalf("detection at t=%g, later than TTL plus maximum jitter allows", detectAt)
	}

	// Silent window: the router must have kept dispatching to the
	// stalled replica between stall and detection — that blindness is
	// the failure mode under test. (Round-robin is content- and
	// lease-blind, so the rotation guarantees hits in the window.)
	silent := 0
	for _, rec := range c.RouteLog() {
		if rec.Replica == 1 && rec.At > stallAt && rec.At < detectAt {
			silent++
		}
		if rec.Replica == 1 && rec.At >= detectAt {
			t.Fatalf("dispatched to detected-dead replica 1 at t=%g", rec.At)
		}
	}
	if silent == 0 {
		t.Fatal("no dispatches landed on the silently stalled replica; the window never exercised")
	}

	if got := len(done) + c.Lost(); got != offered {
		t.Fatalf("completed %d + lost %d ≠ offered %d", len(done), c.Lost(), offered)
	}
	if c.Rerouted() == 0 {
		t.Fatal("stall reclaimed nothing; queued requests should have re-routed on detection")
	}

	// Recovery: requests re-routed off the dead replica completed on
	// the survivors — queue-inclusive TTFT includes the dead-box wait,
	// so their Done events exist despite arriving before the stall.
	for _, ev := range byKind[EventRerouted] {
		if !done[ev.Request] {
			t.Fatalf("re-routed request %d never completed on the surviving fleet", ev.Request)
		}
	}
}

// TestClusterStallFreezesClock pins the stall semantics themselves: the
// replica's engine clock never advances past the stall instant.
func TestClusterStallFreezesClock(t *testing.T) {
	const seed, offered, rate = 715, 16, 12.0
	const stallAt = 0.15
	c := churnCluster(t, seed, 2, WithFailure(0, stallAt, FailStall))
	c.Submit(burstRequests(seed, offered, rate)...)
	c.Run(nil)
	// The last step the stalled replica ran began before stallAt; its
	// clock may overshoot by at most that one step's span, never by a
	// whole post-stall step.
	frozen := c.Engine(0).Clock()
	alive := c.Engine(1).Clock()
	if frozen >= alive {
		t.Fatalf("stalled replica clock %.3fs caught up with survivor %.3fs", frozen, alive)
	}
	if c.State(0) != StateDead {
		t.Fatalf("stalled replica in state %v after lease expiry", c.State(0))
	}
}

// TestClusterScaleUpPaysWarmup pins elasticity: a scale plan adds a
// replica that joins Warming (one ReplicaWarming event at the join
// stamp), receives nothing during its warm-up window, then serves.
func TestClusterScaleUpPaysWarmup(t *testing.T) {
	const seed, offered, rate = 720, 24, 14.0
	const joinAt = 0.2
	c := churnCluster(t, seed, 2, WithScalePlan(ScaleEvent{At: joinAt, Delta: 1}))
	c.Submit(burstRequests(seed, offered, rate)...)

	var evs []Event
	c.Run(func(ev Event) { evs = append(evs, ev) })
	byKind := lifeEvents(evs)

	warmings := byKind[EventReplicaWarming]
	if len(warmings) != 1 {
		t.Fatalf("%d ReplicaWarming events, want 1", len(warmings))
	}
	if warmings[0].Replica != 2 || warmings[0].End != joinAt {
		t.Fatalf("warming event %+v, want replica 2 at t=%g", warmings[0], joinAt)
	}
	if c.Replicas() != 3 {
		t.Fatalf("fleet size %d after scale-up, want 3", c.Replicas())
	}
	if c.State(2) != StateServing {
		t.Fatalf("scale-up replica in state %v at drain, want serving", c.State(2))
	}

	servedNew := 0
	for _, rec := range c.RouteLog() {
		if rec.Replica != 2 {
			continue
		}
		servedNew++
		if rec.At < joinAt+DefaultWarmup {
			t.Fatalf("dispatched to warming replica at t=%g, before promotion at %g",
				rec.At, joinAt+DefaultWarmup)
		}
	}
	if servedNew == 0 {
		t.Fatal("scale-up replica never served; burst too short to exercise elasticity")
	}
}

// TestClusterScaleDownDrains pins the drain path: the highest-indexed
// replica closes to new dispatches at the drain stamp, finishes what it
// holds, and retires Dead; every request still completes.
func TestClusterScaleDownDrains(t *testing.T) {
	const seed, offered, rate = 730, 18, 10.0
	const drainAt = 0.25
	c := churnCluster(t, seed, 3, WithScalePlan(ScaleEvent{At: drainAt, Delta: -1}))
	c.Submit(burstRequests(seed, offered, rate)...)

	var evs []Event
	done := map[int]bool{}
	c.Run(func(ev Event) {
		evs = append(evs, ev)
		if ev.Kind == EventStep && ev.Done {
			done[ev.Request] = true
		}
	})
	byKind := lifeEvents(evs)

	drains := byKind[EventReplicaDraining]
	if len(drains) != 1 || drains[0].Replica != 2 {
		t.Fatalf("draining events %+v, want exactly replica 2", drains)
	}
	deaths := byKind[EventReplicaDead]
	if len(deaths) != 1 || deaths[0].Replica != 2 {
		t.Fatalf("dead events %+v, want exactly replica 2", deaths)
	}
	if deaths[0].Tokens != 0 {
		t.Fatalf("drain lost %d in-flight requests; draining must finish its work", deaths[0].Tokens)
	}
	if c.State(2) != StateDead {
		t.Fatalf("drained replica in state %v, want dead", c.State(2))
	}
	if len(done) != offered {
		t.Fatalf("completed %d of %d; scale-down must not lose work", len(done), offered)
	}
	for _, rec := range c.RouteLog() {
		if rec.Replica == 2 && rec.At >= drainAt {
			t.Fatalf("dispatched to draining replica at t=%g", rec.At)
		}
	}
}

// TestClusterChurnDeterminism pins the acceptance criterion: identical
// seeds, failures and scale plans reproduce byte-identical event
// streams, and the failure RNG stream is independent per seed.
func TestClusterChurnDeterminism(t *testing.T) {
	run := func(seed uint64) []Event {
		c := churnCluster(t, seed, 3,
			WithRouter("affinity"),
			WithFailure(1, 0.2, FailStall),
			WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}))
		c.Submit(burstRequests(740, 20, 12)...)
		var evs []Event
		c.Run(func(ev Event) { evs = append(evs, ev) })
		return evs
	}
	a, b := run(740), run(740)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal-seed churn runs diverged")
	}
	if c := run(741); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical churn streams; detection jitter not seeded")
	}
}

// TestClusterStrandedFleet pins the terminal case: when every replica
// is dead and no lifecycle action can restore capacity, Run returns
// with the undeliverable arrivals still pending rather than spinning.
func TestClusterStrandedFleet(t *testing.T) {
	c := churnCluster(t, 750, 1, WithFailure(0, 0.05, FailDeath))
	c.Submit(burstRequests(750, 8, 6)...)
	c.Run(nil)
	if c.State(0) != StateDead {
		t.Fatalf("replica 0 in state %v, want dead", c.State(0))
	}
	if c.Pending() == 0 {
		t.Fatal("a fully dead fleet drained its queue; requests served by a corpse")
	}
}

// TestClusterDispatchNeverComputesInThePast pins when dispatched work
// may start: a re-routed request computes nowhere before it was
// reclaimed off its dead replica, and a scale-up replica computes
// nothing before it began serving — even though the receiving replica's
// clock can lag both (a joiner's clock starts at 0, an idle replica's
// stays where its last step left it). The stall+standby shape, the
// churn study's, re-routes part of the stalled replica's queue onto the
// standby, so both floors are exercised.
func TestClusterDispatchNeverComputesInThePast(t *testing.T) {
	const seed, at = 2025, 0.5
	c := churnCluster(t, seed, 3,
		WithFailure(1, at, FailStall),
		WithScalePlan(ScaleEvent{At: at, Delta: 1}))
	c.Submit(burstRequests(seed, 20, 12)...)
	reclaimed := map[int]float64{}
	serving := map[int]float64{} // each scale-up join's promotion
	c.Run(func(ev Event) {
		switch {
		case ev.Kind == EventReplicaWarming:
			serving[ev.Replica] = ev.End + DefaultWarmup
		case ev.Kind == EventRerouted:
			reclaimed[ev.Request] = ev.End
		case ev.Kind == EventStep && (ev.Phase == engine.PhasePrefill || ev.Phase == engine.PhaseDecode):
			if at, ok := reclaimed[ev.Request]; ok && ev.Start < at {
				t.Errorf("re-routed request %d computes on r%d at %.4f, before its reclaim at %.4f",
					ev.Request, ev.Replica, ev.Start, at)
			}
			if at := serving[ev.Replica]; ev.Start < at {
				t.Errorf("r%d computes request %d at %.4f, before it began serving at %.4f",
					ev.Replica, ev.Request, ev.Start, at)
			}
		}
	})
	standby := 0
	for _, rec := range c.RouteLog() {
		if rec.Rerouted && rec.Replica == 3 {
			standby++
		}
	}
	if len(reclaimed) == 0 || standby == 0 {
		t.Fatalf("%d re-routes, %d onto the standby; the scenario must re-route onto the joiner",
			len(reclaimed), standby)
	}
}

// TestClusterReroutedSkipsFleetAdmission pins the door policy: a
// request the fleet already admitted is not re-judged (and possibly
// shed) just because its replica died.
func TestClusterReroutedSkipsFleetAdmission(t *testing.T) {
	shedAll := admitNone{}
	c := churnCluster(t, 760, 2,
		WithFailure(1, 0.08, FailDeath),
		WithAdmission(shedAll))
	// Admission sheds everything, so nothing is ever dispatched and the
	// death reclaims nothing — but the path must not panic, and the
	// shed count must cover the whole burst exactly once.
	reqs := burstRequests(760, 10, 8)
	c.Submit(reqs...)
	c.Run(nil)
	if c.Shed() != len(reqs) {
		t.Fatalf("shed %d of %d", c.Shed(), len(reqs))
	}
}
