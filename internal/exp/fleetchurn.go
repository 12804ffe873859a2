package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// churnRun extends fleetRun with the lifecycle accounting a churn
// scenario produces: how much work the failure displaced, how long the
// fleet took to absorb it, and what the cold scale-up replica's cache
// actually delivered while it re-warmed.
type churnRun struct {
	fleetRun
	rerouted, lost int
	// deadAt is when the lease expiry detected the failure (0 when the
	// scenario is churn-free).
	deadAt float64
	// recoverAt is the completion stamp of the last re-routed request —
	// the moment the displaced queue has fully drained elsewhere.
	recoverAt float64
	// dipRate is goodput inside the (stallAt, recoverAt] outage window;
	// postRate is goodput after recovery. dipDepth = 1 - dip/post.
	dipRate, postRate float64
	// coldHit and warmHit are aggregate cache hit fractions for the
	// scale-up replicas (born cold) and the original warm fleet.
	coldHit, warmHit float64
	coldRouted       int
}

func (r churnRun) dipDepth() float64 {
	if r.postRate == 0 {
		return 0
	}
	return 1 - r.dipRate/r.postRate
}

func (r churnRun) recovery() float64 {
	if r.recoverAt == 0 {
		return 0
	}
	return r.recoverAt - r.deadAt
}

// driveChurn serves reqs through an n-replica fleet with the given
// churn options (failures, scale plans) layered on, reading the
// lifecycle event stream the cluster now publishes: Rerouted records
// name the displaced requests, ReplicaDead stamps the detection time,
// and per-replica hit/miss sums split warm incumbents from cold
// joiners. stallAt anchors the dip window; pass 0 for churn-free rows.
func driveChurn(p Params, ratio float64, n int, routerName string,
	reqs []workload.Request, stallAt float64, opts ...cluster.Option) churnRun {
	var (
		r            churnRun
		reroutedIDs  = map[int]bool{}
		hits, misses = map[int]int64{}, map[int]int64{}
	)
	run, c := serveFleet(p, ratio, n, routerName, reqs, func(ev cluster.Event) {
		switch ev.Kind {
		case cluster.EventRerouted:
			reroutedIDs[ev.Request] = true
		case cluster.EventReplicaDead:
			if ev.End > r.deadAt {
				r.deadAt = ev.End
			}
		case cluster.EventStep:
			hits[ev.Replica] += ev.Hits
			misses[ev.Replica] += ev.Misses
		}
	}, opts...)
	r.fleetRun = run
	r.rerouted, r.lost = c.Rerouted(), c.Lost()

	for id := range reroutedIDs {
		if at, ok := r.CompletedAt[id]; ok && at > r.recoverAt {
			r.recoverAt = at
		}
	}
	if stallAt > 0 && r.recoverAt > stallAt {
		dip, post := 0, 0
		for _, at := range r.CompletedAt {
			switch {
			case at > stallAt && at <= r.recoverAt:
				dip++
			case at > r.recoverAt:
				post++
			}
		}
		r.dipRate = float64(dip) / (r.recoverAt - stallAt)
		if r.Makespan > r.recoverAt {
			r.postRate = float64(post) / (r.Makespan - r.recoverAt)
		}
	}
	hitFrac := func(h, m int64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	var ch, cm, wh, wm int64
	for i, h := range hits {
		if i >= n {
			ch, cm = ch+h, cm+misses[i]
		} else {
			wh, wm = wh+h, wm+misses[i]
		}
	}
	r.coldHit, r.warmHit = hitFrac(ch, cm), hitFrac(wh, wm)
	for i := n; i < len(r.routed); i++ {
		r.coldRouted += r.routed[i]
	}
	return r
}

// churnScenario is one failure/elasticity shape the study sweeps.
type churnScenario struct {
	name string
	// opts builds the scenario's lifecycle options from the calibrated
	// stall and scale stamps.
	opts func(stallAt, scaleAt float64) []cluster.Option
	// stalls reports whether the scenario includes the injected stall
	// (anchoring the dip-window metrics).
	stalls bool
}

func churnScenarios() []churnScenario {
	return []churnScenario{
		{"steady", func(_, _ float64) []cluster.Option { return nil }, false},
		{"stall", func(stallAt, _ float64) []cluster.Option {
			return []cluster.Option{cluster.WithFailure(1, stallAt, cluster.FailStall)}
		}, true},
		{"stall+standby", func(stallAt, scaleAt float64) []cluster.Option {
			return []cluster.Option{
				cluster.WithFailure(1, stallAt, cluster.FailStall),
				cluster.WithScalePlan(cluster.ScaleEvent{At: scaleAt, Delta: 1}),
			}
		}, true},
	}
}

// fleetChurnStudy sweeps churn scenario × router on a fixed fleet: a
// steady baseline, a mid-run replica stall (detected by lease expiry,
// its queue re-routed), and the same stall answered by a cold standby —
// a scale-up scheduled at the stall time, warming while the lease runs
// down so it turns Serving just before detection re-routes the
// displaced queue.
// Reported per row: completions, re-routed and lost requests, aggregate
// goodput, the goodput dip depth inside the outage window, the recovery
// time (detection to last displaced request completing), queue-inclusive
// p95 TTFT, and the cold-vs-warm cache hit split that prices the
// elasticity re-warm. The claims this table carries: a stall dents
// goodput but never strands work (completed + lost == offered, every
// re-routed request finishes), and a scale-up replica serves at a
// visibly lower hit rate until its cache warms — the re-warm cost the
// lifecycle model charges for elasticity, paid under every router.
//
// The serial prologue calibrates per-replica capacity (closed loop),
// then a churn-free span at the swept rate places the stall at 0.3x
// span, so the scenario stamps track workload scale instead of
// hard-coding simulated seconds. The standby scale-up fires at the
// stall itself: its warm-up (DefaultWarmup) is shorter than the stalled
// replica's lease expiry (DefaultLeaseTTL plus jitter), so by detection
// the cold joiner is Serving and absorbs part of the displaced queue —
// which is exactly when its untrustworthy PredictedResidency matters.
func fleetChurnStudy(p Params, requests, replicas int, ratio float64) *report.Table {
	_, perReplica := calibrateFleet(p, requests, ratio)
	// 1.2x aggregate capacity: enough overload that a lost replica digs
	// a visible backlog, low enough that arrivals outlast the re-warm.
	rate := 1.2 * perReplica * float64(replicas)
	reqs := studyRequests(p, requests, rate)

	span := driveFleet(p, ratio, replicas, "round-robin", reqs, nil).Makespan
	stallAt := 0.3 * span
	scaleAt := stallAt

	var cells []Cell
	for _, sc := range churnScenarios() {
		for _, routerName := range churnRouters {
			cells = append(cells, func() []Row {
				anchor := 0.0
				if sc.stalls {
					anchor = stallAt
				}
				r := driveChurn(p, ratio, replicas, routerName, reqs,
					anchor, sc.opts(stallAt, scaleAt)...)
				return []Row{{sc.name, routerName, r.Completed, r.rerouted, r.lost,
					r.Goodput(), r.dipDepth(), r.recovery(), r.TTFT.Stats().P95,
					r.coldRouted, r.coldHit, r.warmHit}}
			})
		}
	}
	return tableFromCells(
		fmt.Sprintf("Fleet churn study: scenario × router, %d replicas (stall at 0.3 span, standby scale-up at the stall)", replicas),
		[]string{"scenario", "router", "completed", "rerouted", "lost", "goodput(req/s)",
			"dip-depth", "recovery(s)", "p95-TTFT(s)", "cold-routed", "cold-hit", "warm-hit"},
		runCells(cells))
}

// churnRouters are the two dispatch policies the churn grid contrasts:
// lease-blind rotation (keeps feeding a silently stalled replica until
// detection) against lease- and readiness-aware affinity.
var churnRouters = []string{"round-robin", "affinity"}
