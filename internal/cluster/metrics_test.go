package cluster

import (
	"testing"

	"hybrimoe/internal/engine"
)

// TestClusterMetricsConserve checks a drained fleet's Metrics against
// the events Step returned, over every parallel scenario (the
// fleet-churn and disagg-handoff goldens' fleets and a batched fleet
// behind fleet-door admission among them). Steps counts the events;
// Shed counts the fleet's PhaseShed records and Deferred is at least its
// PhaseDeferred records; Rerouted counts the Rerouted records; Lost sums
// the ReplicaDead records' Tokens, and Lost() agrees with it; Handoffs,
// MigratedExperts and WarmExperts are the Handoff records' count, summed
// Tokens and summed Hits. Each replica session's Steps, Shed, Batches,
// Hits and Misses must match the step events tagged with its index, so
// no replica event is lost between session and fleet. Across the
// scenarios every fleet counter must be positive somewhere, so no check
// holds only at zero.
func TestClusterMetricsConserve(t *testing.T) {
	var seen Metrics
	for _, sc := range parallelScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			c, err := New(sc.opts(t)...)
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(sc.reqs()...)
			var want Metrics
			deferrals := 0
			replicas := map[int]*engine.Metrics{}
			for ev, ok := c.Step(); ok; ev, ok = c.Step() {
				want.Steps++
				switch {
				case ev.Kind == EventRerouted:
					want.Rerouted++
				case ev.Kind == EventReplicaDead:
					want.Lost += ev.Tokens
				case ev.Kind == EventHandoff:
					want.Handoffs++
					want.MigratedExperts += ev.Tokens
					want.WarmExperts += int(ev.Hits)
				case ev.Kind != EventStep:
					// Warming and Draining records move no counter.
				case ev.Replica == FleetReplica && ev.Phase == engine.PhaseShed:
					want.Shed++
				case ev.Replica == FleetReplica && ev.Phase == engine.PhaseDeferred:
					deferrals++
				default:
					r := replicas[ev.Replica]
					if r == nil {
						r = &engine.Metrics{}
						replicas[ev.Replica] = r
					}
					r.Steps++
					r.Batches = max(r.Batches, ev.Batch)
					r.Hits += ev.Hits
					r.Misses += ev.Misses
					if ev.Phase == engine.PhaseShed {
						r.Shed++
					}
				}
			}
			got := c.Metrics()
			want.Deferred = got.Deferred
			if got != want {
				t.Errorf("Metrics() = %+v, events give %+v", got, want)
			}
			if got.Deferred < deferrals {
				t.Errorf("Deferred = %d, below the %d fleet PhaseDeferred records", got.Deferred, deferrals)
			}
			if c.Lost() != got.Lost {
				t.Errorf("Lost() = %d, Metrics().Lost = %d", c.Lost(), got.Lost)
			}
			for i := 0; i < c.Replicas(); i++ {
				m := c.Session(i).Metrics()
				r := replicas[i]
				if r == nil {
					r = &engine.Metrics{}
				}
				if m.Steps != r.Steps || m.Shed != r.Shed || m.Batches != r.Batches ||
					m.Hits != r.Hits || m.Misses != r.Misses {
					t.Errorf("replica %d: Steps/Shed/Batches/Hits/Misses = %d/%d/%d/%d/%d, its events give %d/%d/%d/%d/%d",
						i, m.Steps, m.Shed, m.Batches, m.Hits, m.Misses, r.Steps, r.Shed, r.Batches, r.Hits, r.Misses)
				}
			}
			seen.Shed += got.Shed
			seen.Deferred += got.Deferred
			seen.Rerouted += got.Rerouted
			seen.Lost += got.Lost
			seen.Handoffs += got.Handoffs
			seen.MigratedExperts += got.MigratedExperts
			seen.WarmExperts += got.WarmExperts
		})
	}
	if seen.Shed == 0 || seen.Deferred == 0 || seen.Rerouted == 0 || seen.Lost == 0 ||
		seen.Handoffs == 0 || seen.MigratedExperts == 0 || seen.WarmExperts == 0 {
		t.Fatalf("some counter is zero in every scenario: summed %+v", seen)
	}
}
