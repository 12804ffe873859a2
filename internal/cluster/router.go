package cluster

import (
	"hybrimoe/internal/registry"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/workload"
)

// ReplicaView is one replica's state as a router sees it at dispatch
// time: queue depth, clock, lifecycle freshness and the cache-affinity
// signal.
type ReplicaView struct {
	// Index is the replica's position in the cluster. Routers return it
	// from Pick — with lifecycle in play the view slice holds only the
	// dispatch-eligible replicas, so a view's position and its Index
	// need not agree.
	Index int
	// Pending is the replica's in-flight plus queued request count
	// (Session.Pending).
	Pending int
	// Clock is the replica's simulation clock in seconds.
	Clock float64
	// LeaseAge is how long ago (seconds of fleet time) the replica last
	// renewed its lease. Healthy replicas heartbeat continuously and
	// report 0; a growing LeaseAge is the one observable symptom of a
	// silently stalled replica before the doctor declares it dead.
	LeaseAge float64
	// Resident and Predicted carry the expert-affinity signal
	// (Engine.PredictedResidency): of the Predicted experts the
	// replica's gate-reuse prediction expects its next iteration to
	// activate, Resident are already held by its per-device cache
	// shards. Resident/Predicted is the replica's cache readiness for
	// the work it is about to do — the overlap between the request's
	// predicted expert set on that replica and the experts the replica
	// already holds.
	Resident, Predicted int
	// HasExpert probes whether a specific expert is resident on the
	// replica (Engine.IsResident) — the per-request affinity signal
	// checkpoint-aware routers score migrating requests' working sets
	// against. Nil in hand-built test views; routers must tolerate that.
	HasExpert func(layer, index int) bool
}

// readiness is the affinity score: predicted-expert residency fraction.
func (v ReplicaView) readiness() float64 {
	if v.Predicted == 0 {
		return 0
	}
	return float64(v.Resident) / float64(v.Predicted)
}

// Router picks the replica each arriving request is dispatched to.
// Pick sees the dispatch-eligible (Serving) replicas only and must
// return the Index of one of the views it was handed; the cluster
// panics on any other value, the way the engine treats scheduler bugs.
// On a full healthy fleet views[i].Index == i, so position-based
// rotation arithmetic keeps its historical behaviour. Routers may keep
// state (cursors, RNG streams) — the cluster owns exactly one instance,
// so dispatch order is the only input and runs stay byte-stable.
type Router interface {
	// Name identifies the router in experiment tables.
	Name() string
	// Pick returns the Index of the view req is dispatched to.
	Pick(req workload.Request, views []ReplicaView) int
}

// RoundRobin dispatches requests to replicas in rotation, blind to load
// and cache state — the content-blind fleet baseline. The rotation
// cursor walks the eligible set, so a dead replica's slot is skipped
// rather than stalling the wheel.
type RoundRobin struct{ next int }

// NewRoundRobin returns a rotation starting at replica 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Router.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Router.
func (r *RoundRobin) Pick(_ workload.Request, views []ReplicaView) int {
	idx := r.next % len(views)
	r.next = (r.next + 1) % len(views)
	return views[idx].Index
}

// LeastLoaded dispatches each request to the replica with the fewest
// pending requests (ties to the lowest index) — load-aware but blind to
// cache state.
type LeastLoaded struct{}

// NewLeastLoaded returns the least-loaded router.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Router.
func (l *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Router.
func (l *LeastLoaded) Pick(_ workload.Request, views []ReplicaView) int {
	best := 0
	for i, v := range views[1:] {
		if v.Pending < views[best].Pending {
			best = i + 1
		}
	}
	return views[best].Index
}

// PowerOfTwo samples two distinct replicas from its own RNG stream and
// dispatches to the lighter one (ties to the lower index) — the classic
// randomized load balancer, far better than random-one at a fraction of
// least-loaded's coordination cost.
type PowerOfTwo struct{ rng *stats.RNG }

// NewPowerOfTwo returns a power-of-two-choices router drawing from its
// own seeded stream, so fleet runs stay deterministic.
func NewPowerOfTwo(seed uint64) *PowerOfTwo {
	return &PowerOfTwo{rng: stats.NewRNG(seed ^ 0x70f2_c401_9b5d_e6a3)}
}

// Name implements Router.
func (p *PowerOfTwo) Name() string { return "power-of-two" }

// Pick implements Router.
func (p *PowerOfTwo) Pick(_ workload.Request, views []ReplicaView) int {
	n := len(views)
	if n == 1 {
		return views[0].Index
	}
	i := p.rng.Intn(n)
	j := p.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if i > j {
		i, j = j, i
	}
	// i < j: on equal depth the lower index wins, keeping ties
	// deterministic whatever order the draws came out.
	if views[j].Pending < views[i].Pending {
		return views[j].Index
	}
	return views[i].Index
}

// DefaultReadyDiscount is the availability credit (in seconds) a fully
// resident predicted expert set buys a replica under Affinity scoring —
// on the order of the CPU→GPU transfer time the resident experts will
// not pay, a few decode steps' worth.
const DefaultReadyDiscount = 0.05

// staleTolerance is the lease age (simulated seconds) past which
// Affinity suspects a replica of a silent stall: half the cluster's
// lease TTL, so the router dodges a frozen replica well before the
// doctor declares it dead.
const staleTolerance = DefaultLeaseTTL / 2

// Affinity steers each request toward the eligible replica that will be
// ready for it soonest, where "ready" folds cache state into
// availability: each replica's score is its clock minus a residency
// discount — the fraction of its predicted expert set already resident
// (ReplicaView.Resident/Predicted, the per-device attribution from
// cache.Multi surfaced by Engine.PredictedResidency) times
// DefaultReadyDiscount, the transfer time those resident experts won't
// pay. Warm replicas therefore win exactly the near-ties where cache
// readiness covers the clock gap, instead of accumulating load
// unboundedly. Load balance is strict: only replicas at the lightest
// queue depth are eligible, so hot experts never melt one replica and
// locality only breaks availability ties. The router is lease-aware: a
// view whose LeaseAge exceeds half the lease TTL is suspected stalled
// (a frozen clock looks unbeatably available — exactly the trap) and is
// skipped unless every view is suspect. Score ties go to the lowest
// index.
type Affinity struct{}

// Name implements Router.
func (a *Affinity) Name() string { return "affinity" }

// suspect reports whether the view's lease is stale enough to dodge.
func suspect(v ReplicaView) bool {
	return v.LeaseAge > staleTolerance
}

// readinessFor scores a view's cache readiness for this specific
// request. A migrating checkpointed request carries its own working set,
// so its readiness is the fraction of the checkpoint's experts already
// resident on the replica (probed through HasExpert); everything else
// falls back to the replica's own predicted-residency fraction.
func readinessFor(req workload.Request, v ReplicaView) float64 {
	if ck := req.Checkpoint; ck != nil && len(ck.Experts) > 0 && v.HasExpert != nil {
		resident := 0
		for _, x := range ck.Experts {
			if v.HasExpert(x.Layer, x.Index) {
				resident++
			}
		}
		return float64(resident) / float64(len(ck.Experts))
	}
	return v.readiness()
}

// Pick implements Router.
func (a *Affinity) Pick(req workload.Request, views []ReplicaView) int {
	// Lease-awareness: prefer fresh views; if every lease is stale the
	// filter yields nothing and the full set stays in play (a wrong
	// guess beats a stranded request).
	fresh := 0
	for _, v := range views {
		if !suspect(v) {
			fresh++
		}
	}
	useFilter := fresh > 0 && fresh < len(views)
	minPending, seeded := 0, false
	for _, v := range views {
		if useFilter && suspect(v) {
			continue
		}
		if !seeded || v.Pending < minPending {
			minPending, seeded = v.Pending, true
		}
	}
	best, bestScore := -1, 0.0
	for _, v := range views {
		if (useFilter && suspect(v)) || v.Pending > minPending {
			continue
		}
		score := v.Clock - DefaultReadyDiscount*readinessFor(req, v)
		if best < 0 || score < bestScore {
			best, bestScore = v.Index, score
		}
	}
	return best
}

// RouterConfig carries everything a router factory may condition on.
// New fields extend it without another breaking Factory signature
// change.
type RouterConfig struct {
	// Seed is the fleet base seed; randomized routers must derive their
	// streams from it so equal-seed runs stay byte-stable.
	Seed uint64
}

// Factory builds one router instance for a cluster from its config.
type Factory func(cfg RouterConfig) Router

var routers = registry.New[Factory]("cluster: RegisterRouter", "cluster: unknown router")

// RegisterRouter makes a router constructible by name through NewRouter.
// Duplicate names and nil factories panic — plugin wiring bugs, caught
// at init time.
func RegisterRouter(name string, f Factory) { routers.Add(name, f) }

// NewRouter builds the named router from cfg, or returns a descriptive
// error for an unknown name.
func NewRouter(name string, cfg RouterConfig) (Router, error) {
	f, err := routers.Get(name)
	if err != nil {
		return nil, err
	}
	return f(cfg), nil
}

// RouterNames lists the registered routers in sorted order.
func RouterNames() []string { return routers.Names() }

func init() {
	RegisterRouter("round-robin", func(RouterConfig) Router { return NewRoundRobin() })
	RegisterRouter("least-loaded", func(RouterConfig) Router { return NewLeastLoaded() })
	RegisterRouter("power-of-two", func(cfg RouterConfig) Router { return NewPowerOfTwo(cfg.Seed) })
	RegisterRouter("affinity", func(RouterConfig) Router { return &Affinity{} })
}
