// Fleet example: multi-replica serving through internal/cluster. A
// burst of mixed-corpus requests with Poisson arrivals is dispatched
// across independent replica stacks — each its own engine, expert cache
// and session, advanced in lockstep on per-replica clocks — under each
// registered router in turn: content-blind round-robin, queue-aware
// least-loaded, randomized power-of-two, and cache-affinity steering,
// which sends each request to the lightest replica that will be ready
// for it soonest, discounting availability by predicted-expert
// residency. A fleet-level SLO guard sheds against fleet-aggregate
// quantiles before any replica queues the request. A churn pass then
// stalls one replica mid-run (its queued requests re-route once the
// lease expires) while a cold scale-up replica joins and re-warms. The
// closing table is the fleet study: routers × arrival rate at equal
// hardware, where affinity meets or beats round-robin on goodput at
// fleet scale.
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"os"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/workload"
)

func main() {
	const (
		seed     = 42
		replicas = 3
		rate     = 24.0 // req/s, hot enough that routing quality shows
	)
	reqs := workload.NewStream(seed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(rate)).
		NextN(12)
	workload.CapDecode(reqs, 6)

	// Every registered router over the identical burst and hardware:
	// only the dispatch decision differs between rows.
	fmt.Printf("%d requests, %d replicas, Poisson %.0f req/s:\n\n", len(reqs), replicas, rate)
	fmt.Printf("  %-14s %-10s %-12s %-12s %s\n", "router", "makespan", "p95 TTFT", "mean TBT", "routed")
	for _, name := range cluster.RouterNames() {
		c, err := exp.NewFleet(replicas, name, seed, 0.25)
		if err != nil {
			log.Fatal(err)
		}
		c.Submit(reqs...)
		var t engine.Tally
		c.Run(func(ev cluster.Event) {
			if ev.Kind == cluster.EventStep {
				t.Add(ev.StepEvent)
			}
		})
		fmt.Printf("  %-14s %-10s %-12s %-12s %v\n", name,
			fmt.Sprintf("%.3fs", t.Makespan),
			fmt.Sprintf("%.4fs", t.TTFT.Stats().P95),
			fmt.Sprintf("%.5fs", t.TBT.Stats().Mean),
			c.Routed())
	}

	// One streaming run in detail: affinity routing with a fleet-level
	// SLO guard at the door. Shed events carry Replica == FleetReplica —
	// the request never reached a replica queue.
	c, err := exp.NewFleet(replicas, "affinity", seed, 0.25,
		cluster.WithAdmission(engine.NewSLOAdmission(0.45, 0)))
	if err != nil {
		log.Fatal(err)
	}
	c.Submit(reqs...)
	fmt.Println("\naffinity fleet with SLO admission (p95 TTFT 0.45s) at the fleet door:")
	c.Run(func(ev cluster.Event) {
		if ev.Kind != cluster.EventStep {
			return
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			fmt.Printf("  t=%6.3fs r%d req %2d prefill %4d tokens, queued %.4fs, TTFT %.4fs\n",
				ev.End, ev.Replica, ev.Request, ev.Tokens, ev.Queued, ev.Queued+ev.Latency)
		case engine.PhaseShed:
			fmt.Printf("  t=%6.3fs    req %2d SHED before routing (fleet p95 over budget)\n",
				ev.End, ev.Request)
		}
	})
	fmt.Printf("shed %d of %d; routed per replica: %v\n", c.Metrics().Shed, len(reqs), c.Routed())
	for i := 0; i < replicas; i++ {
		fmt.Printf("  replica %d: clock %.3fs, cache hit rate %.1f%%\n",
			i, c.Engine(i).Clock(), 100*c.Session(i).Metrics().HitRate())
	}

	// Fleet churn: replica 1 stalls silently mid-run — the fleet keeps
	// routing to it until its lease expires and the doctor declares it
	// dead, at which point its queued requests re-enter the dispatch
	// queue with their original arrivals (the dead-box wait lands in
	// queue-inclusive TTFT) — while a cold replacement replica joins on
	// a scale plan and pays its re-warm window before serving.
	fmt.Println("\nfleet churn: r1 stalls at t=0.15s, a cold replica joins at t=0.3s:")
	churn, err := exp.NewFleet(replicas, "affinity", seed, 0.25,
		cluster.WithFailure(1, 0.15, cluster.FailStall),
		cluster.WithScalePlan(cluster.ScaleEvent{At: 0.3, Delta: +1}),
		cluster.WithRouteLog(64))
	if err != nil {
		log.Fatal(err)
	}
	churn.Submit(reqs...)
	churn.Run(func(ev cluster.Event) {
		switch ev.Kind {
		case cluster.EventReplicaWarming:
			fmt.Printf("  t=%6.3fs r%d joined cold, warming\n", ev.End, ev.Replica)
		case cluster.EventReplicaDead:
			fmt.Printf("  t=%6.3fs r%d declared dead (%d in-flight lost)\n", ev.End, ev.Replica, ev.Tokens)
		case cluster.EventRerouted:
			fmt.Printf("  t=%6.3fs req %2d re-routed off r%d (arrived %.3fs)\n",
				ev.End, ev.Request, ev.Replica, ev.Arrival)
		}
	})
	m := churn.Metrics()
	fmt.Printf("re-routed %d, lost %d; replica states:", m.Rerouted, m.Lost)
	for i := 0; i < churn.Replicas(); i++ {
		fmt.Printf(" r%d=%s", i, churn.State(i))
	}
	fmt.Println()
	redispatched := 0
	for _, rec := range churn.RouteLog() {
		if rec.Rerouted {
			redispatched++
		}
	}
	fmt.Printf("route log (opt-in, last 64): %d records, %d re-dispatches\n",
		len(churn.RouteLog()), redispatched)

	// The full sweep: fleet size × router × arrival rate, calibrated
	// from a single-replica closed-loop run — the registered "fleet"
	// experiment's exact shape, where affinity meets or beats
	// round-robin on goodput at every 4-replica cell.
	fmt.Println()
	p := exp.QuickParams()
	exp.FleetStudy(p, 16, []int{2, 4}, 0.25).Render(os.Stdout)
}
