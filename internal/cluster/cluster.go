// Package cluster lifts the single-box Session to a fleet: N independent
// engine replicas — each with its own topology, cache, scheduler, batcher
// and RNG stream — advanced in lockstep on a shared simulation clock,
// with arriving requests dispatched across them by a pluggable Router.
// The locality argument the paper makes for CPU↔GPU expert caching
// recurs one level up: steering a request toward the replica whose cache
// shards already hold its predicted experts (the affinity router) buys
// the same transfer avoidance that intra-box placement does.
//
// Replicas carry a lifecycle (Warming → Serving → Draining → Dead)
// driven on the same timeline: failures can be injected
// deterministically (WithFailure — a silent clock stall detected by
// lease expiry, or an immediately visible hard death), the fleet can be
// scaled mid-run (WithScalePlan — new replicas join cold and pay a
// re-warm window before serving), and a dead replica's undelivered
// queue re-enters the dispatch queue with original arrival stamps, so
// re-routing shows up honestly in queue-inclusive TTFT.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/sim"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/workload"
)

// FleetReplica marks Events produced by the cluster itself — fleet-level
// admission sheds and deferrals that happen before any replica is picked.
const FleetReplica = -1

// replicaSeedStride spaces per-replica RNG seeds (the golden-ratio
// increment splitmix64 uses), so sibling replicas draw decorrelated
// trace and workload streams from one base seed.
const replicaSeedStride = 0x9E3779B97F4A7C15

// failureSeedSalt decorrelates the failure-detection RNG stream from
// every replica and router stream derived from the same base seed. The
// stream is only instantiated when failures are configured, so unfailed
// runs draw nothing and stay byte-identical.
const failureSeedSalt = 0x5d4e_f2a7_c3b1_8e69

// ReplicaSeed derives replica i's RNG seed from a fleet base seed —
// the convention every fleet consumer (experiments, CLI, benchmarks)
// shares so equal-seed runs stay byte-stable across entry points.
func ReplicaSeed(base uint64, i int) uint64 {
	return base + uint64(i)*replicaSeedStride
}

// Event is one fleet step: a replica's StepEvent tagged with the replica
// index that produced it, a fleet-level admission record tagged
// FleetReplica, or a lifecycle record (Kind != EventStep). The embedded
// StepEvent keeps existing reporting working unchanged on per-replica
// slices of the stream.
type Event struct {
	// Replica indexes the replica that emitted the event, or is
	// FleetReplica for cluster-level admission records.
	Replica int
	// Kind discriminates lifecycle records from compute steps; the zero
	// value (EventStep) is omitted from JSON so step records keep the
	// engine schema plus the Replica tag.
	Kind EventKind `json:",omitempty"`
	engine.StepEvent
}

// fleetRequest tracks one submitted request awaiting dispatch.
type fleetRequest struct {
	req      workload.Request
	deferred bool // a fleet-level PhaseDeferred event has been emitted
	rerouted bool // reclaimed from a dead replica, back for re-dispatch
	handoff  bool // checkpointed export in transit to the decode pool
	// at is the dispatch-queue stamp: the request's arrival for fresh
	// and rerouted submissions, the migration-complete instant for
	// handoffs.
	at float64
	// reclaimed stamps when a rerouted request came back off its dead
	// replica; it computes nowhere before then.
	reclaimed float64
	// xferStart stamps when a handoff's interconnect transfer began —
	// the exporting replica's clock at the stage boundary.
	xferStart float64
}

// RouteRecord is one dispatch decision, retained when WithRouteLog is
// configured: which request went to which replica at what fleet time,
// and whether it was a re-route off a dead replica or a
// prefill→decode handoff.
type RouteRecord struct {
	Request  int
	Replica  int
	At       float64
	Rerouted bool
	Handoff  bool
}

// config collects cluster construction state; Options validate eagerly
// and New validates the combination.
type config struct {
	replicas      int
	routerName    string
	build         func(i int) (*engine.Engine, error)
	seed          uint64
	maxConcurrent int
	adm           engine.AdmissionPolicy
	failures      []Failure
	scale         []ScaleEvent
	routeLog      int
	pools         PoolSpec
	workers       int
}

// Option configures a Cluster. Options validate eagerly — a bad value
// surfaces as an error from New, never as a mid-run surprise.
type Option func(*config) error

// WithReplicas sets the initial fleet size (default 1). n < 1 errors.
func WithReplicas(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithReplicas(%d) must be at least 1", n)
		}
		c.replicas = n
		return nil
	}
}

// WithRouter selects the dispatch policy by registry name (default
// "round-robin"); the router is built at New time from the final
// RouterConfig, so it sees the seed the run actually uses. Unknown
// names error from New.
func WithRouter(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("cluster: WithRouter with empty name")
		}
		c.routerName = name
		return nil
	}
}

// WithBuilder sets the replica factory: build(i) constructs replica i's
// engine (seed it per-replica via ReplicaSeed for byte-stable runs).
// Required — New errors without it. The builder outlives construction:
// scale plans call it for replicas joining mid-run.
func WithBuilder(build func(i int) (*engine.Engine, error)) Option {
	return func(c *config) error {
		if build == nil {
			return fmt.Errorf("cluster: WithBuilder(nil)")
		}
		c.build = build
		return nil
	}
}

// WithSeed sets the fleet base seed randomized routers and the
// failure-detection stream derive from (default 0). It does not seed
// the replicas — the builder owns those, conventionally via
// ReplicaSeed(base, i).
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithMaxConcurrent sets every replica session's concurrency limit
// (engine.WithMaxConcurrent semantics). The default of 1 serves each
// replica's requests strictly in order. n < 1 errors.
func WithMaxConcurrent(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithMaxConcurrent(%d) must be at least 1", n)
		}
		c.maxConcurrent = n
		return nil
	}
}

// WithAdmission installs a fleet-level admission policy consulted at
// dispatch time, before a request reaches any replica — router-level
// shedding over fleet-aggregate TTFT/TBT quantiles. One protocol serves
// both sites: the fleet door runs the policy through an engine.Door, the
// same type a Session's admission pass uses, so shed and deferral
// records, idle promotion and counters behave alike. Replica sessions
// keep whatever admission their engines were built with; the two layers
// compose (fleet sheds first, replicas may still defer what gets
// through).
func WithAdmission(p engine.AdmissionPolicy) Option {
	return func(c *config) error {
		c.adm = p
		return nil
	}
}

// WithFailure schedules an injected failure: replica fails at simulated
// time at in the manner of kind. At most one failure per replica; the
// replica must exist at construction (failing scale-up replicas is not
// supported). Detection jitter for stalls draws from a dedicated seeded
// stream, so runs without failures configured stay byte-identical.
func WithFailure(replica int, at float64, kind FailureKind) Option {
	return func(c *config) error {
		if at < 0 || !finite(at) {
			return fmt.Errorf("cluster: WithFailure(%d, %g, %v) time must be non-negative and finite", replica, at, kind)
		}
		if kind != FailStall && kind != FailDeath {
			return fmt.Errorf("cluster: WithFailure(%d, %g, %d) unknown kind", replica, at, int(kind))
		}
		c.failures = append(c.failures, Failure{Replica: replica, At: at, Kind: kind})
		return nil
	}
}

// WithScalePlan schedules fleet resizes: each event adds (Delta > 0)
// or drains (Delta < 0) replicas at its stamp. Events may be given in
// any order; New validates the plan never drains the fleet below one
// replica.
func WithScalePlan(plan ...ScaleEvent) Option {
	return func(c *config) error {
		for _, ev := range plan {
			if ev.Delta == 0 {
				return fmt.Errorf("cluster: WithScalePlan event at %g has zero delta", ev.At)
			}
			if ev.At < 0 || !finite(ev.At) {
				return fmt.Errorf("cluster: WithScalePlan event %+d@%g time must be non-negative and finite", ev.Delta, ev.At)
			}
		}
		c.scale = append(c.scale, plan...)
		return nil
	}
}

// finite reports whether x is neither NaN nor infinite. Lifecycle times
// must be: a NaN stamp breaks the event queue's ordering and pops first.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// WithRouteLog retains the last n dispatch decisions as RouteRecords
// (RouteLog returns them oldest-first). Retention is opt-in so
// long-running fleets don't accumulate unbounded history; without it
// the cluster keeps only the per-replica counters Routed reports.
// n < 1 errors.
func WithRouteLog(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithRouteLog(%d) must be at least 1", n)
		}
		c.routeLog = n
		return nil
	}
}

// WithWorkers bounds how many goroutines each horizon window fans its
// replicas out to (default 1, which runs them on the caller's
// goroutine). Step advances independent replicas between fleet
// synchronisation points (the next undispatched arrival or in-transit
// handoff completion, the next lifecycle stamp, and the clock of every
// prefill-pool replica with work) and merges their event runs back into
// the lockstep interleave, so the emitted Event sequence is
// byte-identical at any worker count, pooled fleets included — the knob
// trades CPU for wall-clock, never output. A replica step's panic
// re-panics on the caller at any count. hybrimoe serve passes
// runtime.GOMAXPROCS(0); fleets built inside study cells keep the
// default, since the cells already fill the cores. n < 1 errors.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithWorkers(%d) must be at least 1", n)
		}
		c.workers = n
		return nil
	}
}

// replica is one independent serving stack plus its lifecycle state.
type replica struct {
	eng   *engine.Engine
	ses   *engine.Session
	state ReplicaState
	// role is the replica's disaggregation station (RoleMixed on
	// unpooled fleets and scale-up joins).
	role PoolRole
	// lease is the simulation time of the last heartbeat — renewed on
	// every step the replica runs, frozen when it stalls.
	lease   float64
	stalled bool
	// since is when the replica began serving: 0 for replicas present at
	// construction, the warm-up promotion for scale-up joins. Nothing
	// dispatched to it computes before then.
	since float64
	// hasExpert is the engine's IsResident probe bound once at
	// construction — materialising the method value per views() call
	// would allocate a closure per replica per dispatch.
	hasExpert func(layer, index int) bool
	// runEvs/runClocks are the replica's horizon-window scratch: the
	// StepEvents and their pre-step clocks (the merge keys) from the
	// latest window. Reused across windows.
	runEvs    []engine.StepEvent
	runClocks []float64
}

// Cluster owns N replica stacks and a router, and advances the fleet in
// lockstep order: dispatch routes every arrival the shared clock has
// reached, then the replica whose clock trails the fleet computes next.
// Step runs that order in horizon windows — every replica that trails
// the next synchronisation point runs to it, and the runs merge by
// (pre-step clock, replica index). Equal-seed runs are byte-stable at
// any worker count — the router is the only coupling between replicas,
// and every stochastic component draws from its own seeded stream.
type Cluster struct {
	replicas      []*replica
	router        Router
	build         func(i int) (*engine.Engine, error)
	maxConcurrent int
	// door is the fleet-level admission protocol (nil without a policy);
	// it observes every replica event the fleet produces.
	door *engine.Door
	// life schedules lifecycle transitions (failures, detections, scale
	// events, warm-up promotions) on the same deterministic timeline
	// arrivals ride.
	life sim.Queue[lifeAction]
	// pending holds submitted requests not yet dispatched, keyed by
	// arrival stamp on the shared deterministic event queue (push order
	// breaks ties — exactly the old stable sort), so dispatch is
	// order-preserving the way session admission is.
	pending sim.Queue[*fleetRequest]
	// queue holds events awaiting emission ahead of replica compute:
	// fleet-level admission and lifecycle records, and the merged run
	// of a horizon window. qhead is the pop cursor: Step drops the
	// head by advancing it (zeroing the slot) instead of re-slicing, so
	// the drained prefix never pins the backing array; once drained the
	// buffer resets to length zero for reuse. Appends only ever happen
	// on a drained queue (dispatch, lifecycle and horizon windows run
	// only then), so the cursor never wraps.
	queue     []Event
	qhead     int
	routed    []int
	routeLog  []RouteRecord
	routeCap  int
	routeHead int
	steps     int
	rerouted  int
	lost      int
	// pools is the disaggregation spec (zero when unpooled); the
	// migration counters track completed prefill→decode handoffs and
	// the working-set admission outcome on the receiving replicas.
	pools           PoolSpec
	handoffs        int
	migratedExperts int
	warmAdmitted    int
	// workers caps the goroutines a horizon window fans its replicas
	// out to; at 1 they run on the caller's goroutine. cands and
	// cursors are per-window scratch.
	workers int
	cands   []int
	cursors []int
	// viewBuf is the dispatch-time router snapshot, reused across
	// dispatches — routers must not retain it across Pick calls.
	viewBuf []ReplicaView
}

// New builds a cluster from functional options. WithBuilder is
// required; everything else defaults (1 replica, round-robin router,
// concurrency 1, no failures, no scale plan, no route log). Stalled
// replicas are detected after DefaultLeaseTTL and scale-up replicas warm
// for DefaultWarmup. Invalid or conflicting options error.
func New(opts ...Option) (*Cluster, error) {
	cfg := config{
		replicas:      1,
		routerName:    "round-robin",
		maxConcurrent: 1,
		workers:       1,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.build == nil {
		return nil, fmt.Errorf("cluster: WithBuilder is required")
	}
	if cfg.pools.Pooled() && cfg.pools.Prefill+cfg.pools.Decode > cfg.replicas {
		return nil, fmt.Errorf("cluster: pool spec %v needs %d replicas, fleet has %d",
			cfg.pools, cfg.pools.Prefill+cfg.pools.Decode, cfg.replicas)
	}
	failed := map[int]bool{}
	for _, f := range cfg.failures {
		if f.Replica < 0 || f.Replica >= cfg.replicas {
			return nil, fmt.Errorf("cluster: WithFailure replica %d out of range [0,%d)", f.Replica, cfg.replicas)
		}
		if failed[f.Replica] {
			return nil, fmt.Errorf("cluster: WithFailure replica %d configured twice", f.Replica)
		}
		failed[f.Replica] = true
	}
	if len(cfg.scale) > 0 {
		// The plan must never drain the fleet below one replica at any
		// point of its time-ordered application.
		ordered := append([]ScaleEvent(nil), cfg.scale...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
		live := cfg.replicas
		for _, ev := range ordered {
			live += ev.Delta
			if live < 1 {
				return nil, fmt.Errorf("cluster: scale plan drains fleet to %d replicas at t=%g", live, ev.At)
			}
		}
	}
	router, err := NewRouter(cfg.routerName, RouterConfig{Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		router:        router,
		door:          engine.NewDoor(cfg.adm),
		build:         cfg.build,
		maxConcurrent: cfg.maxConcurrent,
		routed:        make([]int, cfg.replicas),
		routeCap:      cfg.routeLog,
		pools:         cfg.pools,
		workers:       cfg.workers,
	}
	if cfg.routeLog > 0 {
		c.routeLog = make([]RouteRecord, 0, cfg.routeLog)
	}
	for i := 0; i < cfg.replicas; i++ {
		eng, err := cfg.build(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: building replica %d: %w", i, err)
		}
		role := cfg.pools.Role(i)
		if cfg.pools.Pooled() && !eng.Platform().HasInterconnect() {
			return nil, fmt.Errorf("cluster: pool spec %v prices migrations over Platform.Interconnect, but replica %d's platform %q has none",
				cfg.pools, i, eng.Platform().Name)
		}
		sesOpts := []engine.SessionOption{engine.WithMaxConcurrent(cfg.maxConcurrent)}
		if role == RolePrefill {
			sesOpts = append(sesOpts, engine.WithPrefillExport())
		}
		c.replicas = append(c.replicas, &replica{
			eng:       eng,
			ses:       eng.NewSession(sesOpts...),
			state:     StateServing,
			role:      role,
			hasExpert: eng.IsResident,
		})
	}
	// Failure schedule: the lifeFail stamps are configured; stall
	// detection latency stretches the lease TTL by a jittered factor
	// drawn from a dedicated stream — instantiated only here, so runs
	// without failures never draw and stay byte-identical.
	if len(cfg.failures) > 0 {
		rng := stats.NewRNG(cfg.seed ^ failureSeedSalt)
		for _, f := range cfg.failures {
			c.life.Push(f.At, lifeAction{kind: lifeFail, replica: f.Replica, fail: f.Kind})
			if f.Kind == FailStall {
				detect := f.At + DefaultLeaseTTL*(1+0.25*rng.Float64())
				c.life.Push(detect, lifeAction{kind: lifeDetect, replica: f.Replica})
			}
		}
	}
	for _, ev := range cfg.scale {
		c.life.Push(ev.At, lifeAction{kind: lifeScale, delta: ev.Delta})
	}
	return c, nil
}

// Submit enqueues requests for dispatch. Zero-work requests are dropped
// the way Session.Submit drops them; the rest join the arrival-keyed
// dispatch queue (FIFO among equal stamps, so equal stamps keep
// submission order).
func (c *Cluster) Submit(reqs ...workload.Request) {
	for _, r := range reqs {
		if r.PromptTokens <= 0 && r.DecodeTokens <= 0 {
			continue
		}
		c.pending.Push(r.Arrival, &fleetRequest{req: r, at: r.Arrival})
	}
}

// Pending reports how many requests have not yet finished or been
// abandoned: undispatched arrivals plus every live replica's in-flight
// and queued count (a dead replica's residual in-flight requests are
// lost, not pending).
func (c *Cluster) Pending() int {
	n := c.pending.Len()
	for _, r := range c.replicas {
		if r.state == StateDead {
			continue
		}
		n += r.ses.Pending()
	}
	return n
}

// Replicas reports the fleet size, dead replicas included (indices are
// stable for the whole run).
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Session returns replica i's session, for per-replica inspection.
func (c *Cluster) Session(i int) *engine.Session { return c.replicas[i].ses }

// Engine returns replica i's engine.
func (c *Cluster) Engine(i int) *engine.Engine { return c.replicas[i].eng }

// State reports replica i's lifecycle state.
func (c *Cluster) State(i int) ReplicaState { return c.replicas[i].state }

// Routed reports how many requests the router dispatched to each
// replica (fleet-level sheds excluded; re-routes count at every replica
// that received the request). The engine-backed benchmark reads it for
// its dispatch-imbalance metric.
func (c *Cluster) Routed() []int { return append([]int(nil), c.routed...) }

// RouteLog returns the retained dispatch decisions oldest-first — empty
// unless WithRouteLog opted into retention.
func (c *Cluster) RouteLog() []RouteRecord {
	if c.routeCap == 0 || len(c.routeLog) == 0 {
		return nil
	}
	out := make([]RouteRecord, 0, len(c.routeLog))
	out = append(out, c.routeLog[c.routeHead:]...)
	out = append(out, c.routeLog[:c.routeHead]...)
	return out
}

// Metrics is a fleet's counters at one instant; each replica's own are
// in Session(i).Metrics().
type Metrics struct {
	// Steps counts the events Step has returned, fleet-level admission
	// and lifecycle records included.
	Steps int
	// Shed counts the requests fleet-level admission dropped. Deferred
	// counts its deferral verdicts: one request deferred across n
	// dispatch passes counts n times, though its PhaseDeferred event is
	// emitted once. Replica sessions count their own verdicts.
	Shed, Deferred int
	// Rerouted counts queued requests reclaimed from dead replicas that
	// re-entered the dispatch queue. Lost counts in-flight requests that
	// died with their replica: work that had started compute and could
	// not be reclaimed.
	Rerouted, Lost int
	// Handoffs counts completed prefill→decode migrations: checkpointed
	// requests that crossed the interconnect and were adopted by a
	// decode-pool replica. MigratedExperts counts the expert references
	// they carried, and WarmExperts those that landed warm (already
	// resident or admitted) in the adopting replica's cache.
	Handoffs, MigratedExperts, WarmExperts int
}

// Metrics snapshots the fleet's counters.
func (c *Cluster) Metrics() Metrics {
	return Metrics{
		Steps:           c.steps,
		Shed:            c.door.Shed(),
		Deferred:        c.door.Deferred(),
		Rerouted:        c.rerouted,
		Lost:            c.lost,
		Handoffs:        c.handoffs,
		MigratedExperts: c.migratedExperts,
		WarmExperts:     c.warmAdmitted,
	}
}

// Lost is Metrics().Lost, kept because the engine-backed benchmark
// reads it.
func (c *Cluster) Lost() int { return c.lost }

// RouterName reports the dispatch policy steering this cluster.
func (c *Cluster) RouterName() string { return c.router.Name() }

// Pools reports the fleet's disaggregation spec (the zero spec when the
// fleet is unpooled).
func (c *Cluster) Pools() PoolSpec { return c.pools }

// Role reports replica i's pool role.
func (c *Cluster) Role(i int) PoolRole { return c.replicas[i].role }

// steppable reports whether replica i can run a compute step: alive,
// not stalled, with work queued.
func (c *Cluster) steppable(i int) bool {
	r := c.replicas[i]
	return r.state != StateDead && !r.stalled && r.ses.Pending() > 0
}

// frontier reports the steppable replica whose clock trails the fleet
// (ties to the lowest index — the deterministic lockstep order) and that
// clock: the instant the fleet's next compute step runs at, and
// therefore the latest arrival stamp dispatch may observe without
// leaking the future. Stalled and dead replicas are excluded: a frozen
// clock must not freeze the fleet's horizon. pick is -1 when nothing is
// steppable.
func (c *Cluster) frontier() (pick int, at float64) {
	pick = -1
	for i, r := range c.replicas {
		if !c.steppable(i) {
			continue
		}
		if clk := r.eng.Clock(); pick < 0 || clk < at {
			pick, at = i, clk
		}
	}
	return pick, at
}

// eligible reports whether a replica of the given role may receive this
// request under the pool spec: fresh prompt-bearing arrivals belong to
// the prefill (or mixed) pool, while checkpointed handoffs and
// prompt-less decode-only arrivals belong to the decode (or mixed)
// pool. Unpooled fleets accept everything everywhere — the historical
// behaviour.
func (c *Cluster) eligible(fr *fleetRequest, role PoolRole) bool {
	if !c.pools.Pooled() {
		return true
	}
	if fr.handoff || fr.req.PromptTokens <= 0 {
		return role != RolePrefill
	}
	return role != RoleDecode
}

// views assembles the router's snapshot of the dispatch-eligible
// replicas: every Serving replica's queue depth, clock, lease freshness
// at fleet time now, and the predicted-expert residency the affinity
// router scores. Under a pool spec the snapshot holds only the pool the
// head request belongs to. A silently stalled replica still appears —
// nominally Serving, its growing LeaseAge the only tell — which is
// exactly the trap lease-aware routers exist to dodge. The returned
// slice is a per-cluster scratch buffer reused across dispatches.
func (c *Cluster) views(now float64, head *fleetRequest) []ReplicaView {
	views := c.viewBuf[:0]
	for i, r := range c.replicas {
		if r.state != StateServing || !c.eligible(head, r.role) {
			continue
		}
		res, pred := r.eng.PredictedResidency()
		age := 0.0
		if r.stalled && now > r.lease {
			age = now - r.lease
		}
		views = append(views, ReplicaView{
			Index:     i,
			Pending:   r.ses.Pending(),
			Clock:     r.eng.Clock(),
			LeaseAge:  age,
			Resident:  res,
			Predicted: pred,
			HasExpert: r.hasExpert,
		})
	}
	c.viewBuf = views
	return views
}

// snapshot assembles the fleet-aggregate queue depths a fleet
// admission decision sees at dispatch time now; the door fills in the
// latency quantiles.
func (c *Cluster) snapshot(now float64) engine.SLOSnapshot {
	snap := engine.SLOSnapshot{Now: now}
	for _, r := range c.replicas {
		if r.state != StateDead {
			snap.Active += r.ses.Pending()
		}
	}
	c.pending.Scan(func(at float64, _ *fleetRequest) {
		if at <= now {
			snap.Queued++
		}
	})
	return snap
}

// emitFleet queues a fleet-level admission record.
func (c *Cluster) emitFleet(ev engine.StepEvent) {
	c.queue = append(c.queue, Event{Replica: FleetReplica, StepEvent: ev})
}

// record retains one dispatch decision when WithRouteLog opted in.
func (c *Cluster) record(rec RouteRecord) {
	if c.routeCap == 0 {
		return
	}
	if len(c.routeLog) < c.routeCap {
		c.routeLog = append(c.routeLog, rec)
		return
	}
	c.routeLog[c.routeHead] = rec
	c.routeHead = (c.routeHead + 1) % c.routeCap
}

// dispatch moves every observable arrival through fleet admission and
// the router into a replica session. The horizon — the latest arrival
// stamp dispatch may act on — is the steppable-replica clock frontier,
// or the head arrival itself when the fleet is idle (the clock is about
// to jump there, the session idle-gap rule lifted to the fleet). The
// horizon only ratchets forward within one pass: dispatching to a
// stale-clocked idle replica lowers the raw frontier, but an arrival
// observable at a time stays observable. Lifecycle actions the horizon
// has reached fire before routing, so dispatch never consults a fleet
// shape the timeline has already changed. Dispatch is order-preserving —
// a deferred head blocks everything behind it, unless the whole fleet
// is idle, in which case it is promoted the way an empty session
// promotes (waiting cannot improve quantiles no one is producing).
func (c *Cluster) dispatch() {
	horizon := math.Inf(-1)
	for {
		_, head, more := c.pending.PeekMin()
		if !more {
			return
		}
		trailing, front := c.frontier()
		busy := trailing >= 0
		switch {
		case busy && front > horizon:
			horizon = front
		case !busy && head.at > horizon:
			horizon = head.at
		}
		if c.tickLife(horizon) {
			// The fleet changed shape (stall, death, scale); re-derive
			// the frontier and the head before routing.
			continue
		}
		if head.at > horizon {
			return
		}
		if c.door != nil && !head.rerouted && !head.handoff {
			// Re-routed requests were admitted once already, and so was
			// every handoff (on its way into the prefill pool); the
			// fleet door does not get a second chance to shed them. An
			// idle fleet promotes a deferral, as an idle session does.
			switch c.door.Admit(head.req, c.snapshot(horizon), !busy, &head.deferred, c.emitFleet) {
			case engine.AdmissionShed:
				c.pending.PopMin()
				continue
			case engine.AdmissionDefer:
				return
			}
		}
		views := c.views(horizon, head)
		if len(views) == 0 {
			// Nothing is eligible (everything warming, draining or
			// dead). Jump the timeline to the next lifecycle action —
			// a warm-up promotion or scale-up may restore eligibility;
			// if the timeline is exhausted the fleet is stranded and
			// the remaining arrivals can never be served.
			if at, a, ok := c.life.PopMin(); ok {
				c.applyLife(a, at)
				if at > horizon {
					horizon = at
				}
				continue
			}
			return
		}
		pick := c.router.Pick(head.req, views)
		valid := false
		for _, v := range views {
			if v.Index == pick {
				valid = true
				break
			}
		}
		if !valid {
			panic(fmt.Sprintf("cluster: router %q picked replica %d outside the %d eligible views",
				c.router.Name(), pick, len(views)))
		}
		c.pending.PopMin()
		c.routed[pick]++
		c.record(RouteRecord{Request: head.req.ID, Replica: pick, At: horizon, Rerouted: head.rerouted, Handoff: head.handoff})
		if head.handoff {
			c.adoptHandoff(pick, head)
			continue
		}
		c.replicas[pick].ses.SubmitAt(max(head.reclaimed, c.replicas[pick].since), head.req)
	}
}

// adoptHandoff lands a migrated request on decode-pool replica pick:
// the replica's cache admits the checkpoint's expert working set (warm,
// through the ordinary placement path, so attribution stays conserved),
// the session adopts the request decode-only via SubmitPrefilled, and a
// Handoff event records the migration — Start/End span the interconnect
// transfer, Tokens counts the working-set references carried, Hits how
// many of them landed warm. The event's Replica is the destination; the
// source is the replica whose Migrated prefill event carries the same
// request ID.
func (c *Cluster) adoptHandoff(pick int, fr *fleetRequest) {
	ck := fr.req.Checkpoint
	r := c.replicas[pick]
	warm := r.eng.AdoptWorkingSet(ck.Experts)
	c.handoffs++
	c.migratedExperts += len(ck.Experts)
	c.warmAdmitted += warm
	c.queue = append(c.queue, Event{Replica: pick, Kind: EventHandoff, StepEvent: engine.StepEvent{
		Request: fr.req.ID,
		Start:   fr.xferStart, End: ck.ReadyAt,
		Latency: ck.ReadyAt - fr.xferStart,
		Tokens:  len(ck.Experts), Hits: int64(warm),
		Deadline: fr.req.Deadline, Arrival: fr.req.Arrival, Class: fr.req.Class,
	}})
	r.ses.SubmitPrefilled(fr.req)
}

// exportPrefilled drains replica i's just-checkpointed requests onto the
// migration timeline (a no-op off the prefill pool): each pays the
// platform interconnect's transfer time for its checkpoint bytes and
// re-enters the dispatch queue at the completion stamp, where the
// decode pool's router places it.
func (c *Cluster) exportPrefilled(i int) {
	r := c.replicas[i]
	if r.role != RolePrefill {
		return
	}
	for _, req := range r.ses.ExportPrefilled() {
		at := r.eng.Clock()
		xfer := r.eng.Platform().Interconnect.TransferTime(req.Checkpoint.MigrationBytes())
		req.Checkpoint.ReadyAt = at + xfer
		c.pending.Push(req.Checkpoint.ReadyAt, &fleetRequest{
			req: req, handoff: true, at: req.Checkpoint.ReadyAt, xferStart: at,
		})
	}
}

// Step advances the fleet by one event: a queued record if one is
// waiting (a fleet admission, lifecycle or handoff record, or a step of
// the latest horizon window), else, after firing any lifecycle action
// the trailing replica's clock has reached, the next window's merged
// run (see advanceWindow). When nothing is steppable the timeline jumps
// to the next lifecycle action (a stalled fleet waits for its doctor).
// ok is false when every submitted request has finished, been shed, or
// been stranded on a fleet with no serving capacity left and no
// lifecycle action that could restore it.
func (c *Cluster) Step() (ev Event, ok bool) {
	for {
		if c.qhead == len(c.queue) {
			c.dispatch()
		}
		if c.qhead < len(c.queue) {
			ev = c.queue[c.qhead]
			c.queue[c.qhead] = Event{}
			c.qhead++
			if c.qhead == len(c.queue) {
				c.queue, c.qhead = c.queue[:0], 0
			}
			c.steps++
			return ev, true
		}
		if pick, now := c.frontier(); pick >= 0 {
			if at, _, peek := c.life.PeekMin(); peek && at <= now {
				// The fleet clock has reached a lifecycle stamp: apply it
				// before compute — the step about to run may be on the
				// very replica the action stalls or kills.
				c.tickLife(now)
				continue
			}
			c.advanceWindow(pick, now)
			continue
		}
		// Nothing steppable: a stalled replica holding the only work
		// waits for its detection, warming replicas for their promotion.
		// Jump the timeline to the next lifecycle action.
		if at, a, more := c.life.PopMin(); more {
			c.applyLife(a, at)
			continue
		}
		// The fleet is done computing. Deliver what live replicas still
		// hold queued before reporting exhaustion.
		for i, r := range c.replicas {
			if r.state != StateDead {
				c.flushEmissions(i)
			}
		}
		if c.qhead < len(c.queue) {
			continue
		}
		return Event{}, false
	}
}

// Run drains the cluster, invoking handler (when non-nil) on every
// event, and returns the number of events emitted.
func (c *Cluster) Run(handler func(Event)) int {
	n := 0
	for {
		ev, ok := c.Step()
		if !ok {
			return n
		}
		if handler != nil {
			handler(ev)
		}
		n++
	}
}
