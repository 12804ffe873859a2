package cluster

import (
	"fmt"

	"hybrimoe/internal/engine"
)

// ReplicaState is one station of the replica lifecycle state machine:
//
//	Warming → Serving → Draining → Dead
//
// Replicas present at construction start Serving (their cache warm-up
// happened before the run, the state a fleet joins steady-state
// traffic in); replicas added by a scale plan start Warming and are
// promoted to Serving once the configured warm-up window has elapsed —
// until then their caches are cold and their PredictedResidency signal
// is not worth steering by, so the dispatcher holds traffic back.
// Draining replicas finish the work they already hold but accept no new
// dispatches; Dead replicas (drained, hard-killed, or declared dead by
// lease expiry after a clock stall) never serve again.
type ReplicaState int

// Lifecycle states, in forward order.
const (
	StateWarming ReplicaState = iota
	StateServing
	StateDraining
	StateDead
)

// String returns the state name event logs and CLI summaries use.
func (s ReplicaState) String() string {
	switch s {
	case StateWarming:
		return "warming"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int(s))
	}
}

// ScaleEvent is one entry of a scale plan: at simulated time At, add
// Delta replicas (Delta > 0; built by the cluster's builder at the next
// free indices, entering Warming) or drain -Delta replicas (Delta < 0;
// the highest-indexed live replicas move to Draining and retire once
// their queues empty).
type ScaleEvent struct {
	At    float64
	Delta int
}

// DefaultLeaseTTL is the lease timeout (simulated seconds) after which
// a replica whose heartbeat stopped is declared dead and its queue
// reclaimed — a few prefills' worth, long enough that ordinary step
// granularity never trips it.
const DefaultLeaseTTL = 0.25

// DefaultWarmup is the cache re-warm window (simulated seconds) a
// scale-up replica spends Warming before the dispatcher trusts it.
const DefaultWarmup = 0.25

// lifeKind discriminates scheduled lifecycle actions.
type lifeKind uint8

const (
	// lifeFail applies a configured failure to its replica: a stall
	// freezes the replica silently (detection comes later, by lease
	// expiry), a hard death kills it immediately.
	lifeFail lifeKind = iota
	// lifeDetect is the doctor noticing a stalled replica's expired
	// lease: the replica is declared dead and its queue reclaimed.
	lifeDetect
	// lifeScale applies one ScaleEvent.
	lifeScale
	// lifeServe promotes a Warming replica to Serving.
	lifeServe
)

// lifeAction is one scheduled lifecycle transition on the cluster's
// action queue, fired when the fleet's observable clock reaches its
// stamp.
type lifeAction struct {
	kind    lifeKind
	replica int
	fail    FailureKind // lifeFail payload
	delta   int         // lifeScale payload
}

// tickLife applies every scheduled lifecycle action stamped at or
// before now, in stamp order, and reports whether any fired (callers
// re-derive frontiers after a tick — a stall or death changes the
// steppable set).
func (c *Cluster) tickLife(now float64) bool {
	fired := false
	for {
		at, a, ok := c.life.PeekMin()
		if !ok || at > now {
			return fired
		}
		c.life.PopMin()
		c.applyLife(a, at)
		fired = true
	}
}

// applyLife runs one lifecycle transition at simulated time at.
func (c *Cluster) applyLife(a lifeAction, at float64) {
	switch a.kind {
	case lifeFail:
		r := c.replicas[a.replica]
		if r.state == StateDead {
			return
		}
		switch a.fail {
		case FailStall:
			// Silent: the replica's clock freezes and its heartbeat
			// stops, but the fleet keeps believing (and routing to) it
			// until the doctor notices the stale lease. The detection
			// action was scheduled at construction.
			r.stalled = true
			r.lease = r.eng.Clock()
		case FailDeath:
			// A hard death is immediately visible — connections reset —
			// so reclamation happens at the failure instant itself.
			c.kill(a.replica, at)
		}
	case lifeDetect:
		// The doctor only ever fires for a configured stall; the replica
		// may already be hard-dead if both were (mis)configured.
		c.kill(a.replica, at)
	case lifeScale:
		if a.delta > 0 {
			c.scaleUp(a.delta, at)
		} else {
			c.scaleDown(-a.delta, at)
		}
	case lifeServe:
		r := c.replicas[a.replica]
		if r.state == StateWarming {
			r.state = StateServing
		}
	}
}

// kill declares a replica dead at simulated time at: its undelivered
// queue is reclaimed back into the dispatch queue (one Rerouted event
// per request, original arrival stamps intact — the wait on the dead
// box lands in queue-inclusive TTFT when the request finally runs),
// its in-flight requests are abandoned (counted by Lost; their state
// cannot move), and a ReplicaDead event records the moment with the
// abandoned count in Tokens.
func (c *Cluster) kill(i int, at float64) {
	r := c.replicas[i]
	if r.state == StateDead {
		return
	}
	r.state = StateDead
	reclaimed := r.ses.Reclaim()
	lost := r.ses.Pending()
	c.lost += lost
	c.queue = append(c.queue, Event{Replica: i, Kind: EventReplicaDead, StepEvent: engine.StepEvent{
		Start: at, End: at, Tokens: lost,
	}})
	for _, req := range reclaimed {
		c.rerouted++
		// A reclaimed checkpoint's KV state died with the replica: the
		// request must re-prefill from scratch, so it re-enters the
		// dispatch queue as a fresh prompt-bearing arrival (and routes
		// back through the prefill pool when the fleet is disaggregated).
		req.Checkpoint = nil
		c.queue = append(c.queue, Event{Replica: i, Kind: EventRerouted, StepEvent: engine.StepEvent{
			Request: req.ID, Start: at, End: at,
			Deadline: req.Deadline, Arrival: req.Arrival, Class: req.Class,
		}})
		c.pending.Push(req.Arrival, &fleetRequest{req: req, rerouted: true, at: req.Arrival})
	}
}

// scaleUp builds n new replicas at the next free indices. Each starts
// Warming (a ReplicaWarming event records the join) and is promoted to
// Serving after the warm-up window; until then the dispatcher sends it
// nothing — the capacity exists but the cache re-warm cost delays its
// usefulness.
func (c *Cluster) scaleUp(n int, at float64) {
	for k := 0; k < n; k++ {
		i := len(c.replicas)
		eng, err := c.build(i)
		if err != nil {
			panic(fmt.Sprintf("cluster: building scale-up replica %d: %v", i, err))
		}
		c.replicas = append(c.replicas, &replica{
			eng:       eng,
			ses:       eng.NewSession(engine.WithMaxConcurrent(c.maxConcurrent)),
			state:     StateWarming,
			lease:     at,
			hasExpert: eng.IsResident,
		})
		c.routed = append(c.routed, 0)
		c.queue = append(c.queue, Event{Replica: i, Kind: EventReplicaWarming, StepEvent: engine.StepEvent{
			Start: at, End: at,
		}})
		c.life.Push(at+DefaultWarmup, lifeAction{kind: lifeServe, replica: i})
	}
}

// scaleDown moves the n highest-indexed live (Serving or Warming)
// replicas to Draining: no new dispatches, existing queues run to
// completion, and a drained replica retires to Dead. A replica that is
// already idle retires immediately.
func (c *Cluster) scaleDown(n int, at float64) {
	for i := len(c.replicas) - 1; i >= 0 && n > 0; i-- {
		r := c.replicas[i]
		if r.state != StateServing && r.state != StateWarming {
			continue
		}
		n--
		r.state = StateDraining
		c.queue = append(c.queue, Event{Replica: i, Kind: EventReplicaDraining, StepEvent: engine.StepEvent{
			Start: at, End: at,
		}})
		c.retireDrained(i, at)
	}
}

// retireDrained completes the Draining → Dead transition once replica
// i's queue is empty: its undelivered events leave first, then a
// ReplicaDead record stamped at. It does nothing to a replica that is
// not Draining or still holds work.
func (c *Cluster) retireDrained(i int, at float64) {
	r := c.replicas[i]
	if r.state != StateDraining || r.ses.Pending() != 0 {
		return
	}
	c.flushEmissions(i)
	r.state = StateDead
	c.queue = append(c.queue, Event{Replica: i, Kind: EventReplicaDead, StepEvent: engine.StepEvent{
		Start: at, End: at,
	}})
}

// flushEmissions queues the events replica i's session has produced but
// not yet delivered — the trailing members of its last merged batch, or
// an admission record — folding each into the fleet tally as a stepped
// event would be. The session's Pending does not count them, so the
// lockstep loop never steps a replica for them alone: they leave here,
// before the replica retires or the fleet reports exhaustion.
func (c *Cluster) flushEmissions(i int) {
	r := c.replicas[i]
	for r.ses.HasEmission() {
		sev, _ := r.ses.Step()
		c.tally.Add(sev)
		c.queue = append(c.queue, Event{Replica: i, StepEvent: sev})
	}
}
