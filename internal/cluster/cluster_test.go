package cluster

import (
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// buildReplica returns an engine builder deriving each replica's seed
// from base via ReplicaSeed, the convention fleet consumers share.
func buildReplica(t *testing.T, base uint64, extra ...engine.Option) func(i int) (*engine.Engine, error) {
	t.Helper()
	return func(i int) (*engine.Engine, error) {
		opts := append([]engine.Option{
			engine.WithCacheRatio(0.25),
			engine.WithSeed(ReplicaSeed(base, i)),
		}, extra...)
		return engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), opts...)
	}
}

// burstRequests draws a deterministic open-loop Poisson burst; a
// non-positive rate leaves the stream closed-loop (no arrival stamps),
// the calibration shape. Same seed, same prompts either way — arrivals
// draw from a dedicated stream.
func burstRequests(seed uint64, n int, rate float64) []workload.Request {
	stream := workload.NewStream(seed, workload.AllDatasets()...)
	if rate > 0 {
		stream.WithArrivals(workload.Poisson(rate))
	}
	reqs := stream.NextN(n)
	workload.CapDecode(reqs, 4)
	return reqs
}

// decideFunc adapts a function to engine.AdmissionPolicy.
type decideFunc func(req workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision

func (decideFunc) Name() string { return "func" }
func (f decideFunc) Decide(req workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision {
	return f(req, snap)
}

// ReplicaSeed must derive distinct seeds per replica, stable across
// calls, with replica 0 keeping the base seed.
func TestReplicaSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := ReplicaSeed(2025, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ReplicaSeed(2025, %d) == ReplicaSeed(2025, %d)", i, prev)
		}
		seen[s] = i
		if again := ReplicaSeed(2025, i); again != s {
			t.Fatalf("ReplicaSeed(2025, %d) unstable: %d then %d", i, s, again)
		}
	}
	if ReplicaSeed(2025, 0) != 2025 {
		t.Fatal("ReplicaSeed(base, 0) must equal base")
	}
}

// TestClusterSingleReplicaMatchesSession is the acceptance pin: a
// 1-replica cluster with no failures and no scale plan must be a
// transparent wrapper — its event stream is identical, field for field,
// to a bare Session run on an equal-seed engine with the same requests.
// The fleet dispatch gate (arrival ≤ busy-clock frontier, idle-fleet
// promotion) must reproduce exactly when the session's own admit pass
// would first see each request, and the idle lifecycle layer must not
// perturb a single event. It holds with session-level admission too,
// where the burst makes the replica's session both shed and defer: the
// serve command runs a plain invocation as exactly this cluster.
func TestClusterSingleReplicaMatchesSession(t *testing.T) {
	const seed, n, rate = 600, 14, 6.0
	for _, tc := range []struct {
		name  string
		extra []engine.Option
	}{
		{"unguarded", nil},
		{"session-admission", []engine.Option{engine.WithAdmission(engine.NewSLOAdmission(0.2, 0))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := buildReplica(t, seed, tc.extra...)(0)
			if err != nil {
				t.Fatal(err)
			}
			ses := bare.NewSession(engine.WithMaxConcurrent(3))
			ses.Submit(burstRequests(seed, n, rate)...)
			var want []engine.StepEvent
			ses.Run(func(ev engine.StepEvent) { want = append(want, ev) })

			c, err := New(WithBuilder(buildReplica(t, seed, tc.extra...)), WithMaxConcurrent(3))
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(burstRequests(seed, n, rate)...)
			var got []engine.StepEvent
			c.Run(func(ev Event) {
				if ev.Kind != EventStep {
					t.Fatalf("churn-free cluster emitted lifecycle event: %+v", ev)
				}
				if ev.Replica != 0 {
					t.Fatalf("single-replica cluster emitted replica %d event: %+v", ev.Replica, ev)
				}
				got = append(got, ev.StepEvent)
			})

			if len(got) != len(want) {
				t.Fatalf("cluster emitted %d events, bare session %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d diverged:\ncluster: %+v\nsession: %+v", i, got[i], want[i])
				}
			}
			if c.Pending() != 0 {
				t.Fatalf("%d pending after drain", c.Pending())
			}
			r := c.Session(0)
			if r.Shed() != ses.Shed() || r.Deferred() != ses.Deferred() {
				t.Fatalf("replica session shed %d and deferred %d, bare session %d and %d",
					r.Shed(), r.Deferred(), ses.Shed(), ses.Deferred())
			}
			if tc.extra != nil && (ses.Shed() == 0 || ses.Deferred() == 0) {
				t.Fatalf("bare session shed %d and deferred %d; the guarded case needs both",
					ses.Shed(), ses.Deferred())
			}
		})
	}
}

// TestClusterDeterminism pins byte-stable runs: two equal-seed clusters
// under every registered router emit identical event streams.
func TestClusterDeterminism(t *testing.T) {
	for _, name := range RouterNames() {
		run := func() []Event {
			c, err := New(
				WithReplicas(3),
				WithRouter(name),
				WithSeed(77),
				WithBuilder(buildReplica(t, 610)),
				WithMaxConcurrent(2))
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(burstRequests(610, 12, 8)...)
			var evs []Event
			c.Run(func(ev Event) { evs = append(evs, ev) })
			return evs
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("router %q: %d vs %d events across equal-seed runs", name, len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("router %q: event %d diverged across equal-seed runs:\n%+v\n%+v",
					name, i, a[i], b[i])
			}
		}
	}
}

// TestClusterRoutersDispatchEverything checks the conservation law for
// every router: with no fleet admission, every offered request is
// routed to exactly one replica, the fleet drains, and per-request Done
// events arrive once each. The route log (explicit opt-in) must agree
// with the per-replica counters.
func TestClusterRoutersDispatchEverything(t *testing.T) {
	const offered = 12
	for _, name := range RouterNames() {
		c, err := New(
			WithReplicas(4),
			WithRouter(name),
			WithSeed(33),
			WithBuilder(buildReplica(t, 620)),
			WithMaxConcurrent(2),
			WithRouteLog(offered))
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(burstRequests(620, offered, 10)...)
		done := map[int]int{}
		c.Run(func(ev Event) {
			if ev.Replica < 0 || ev.Replica >= c.Replicas() {
				t.Fatalf("router %q: event from replica %d", name, ev.Replica)
			}
			if ev.Done {
				done[ev.Request]++
			}
		})
		total := 0
		for i, n := range c.Routed() {
			if n < 0 {
				t.Fatalf("router %q: negative routed count on replica %d", name, i)
			}
			total += n
		}
		if total != offered {
			t.Fatalf("router %q routed %d of %d offered requests", name, total, offered)
		}
		if len(done) != offered {
			t.Fatalf("router %q completed %d of %d requests", name, len(done), offered)
		}
		for id, n := range done {
			if n != 1 {
				t.Fatalf("router %q: request %d emitted %d Done events", name, id, n)
			}
		}
		log := c.RouteLog()
		if len(log) != offered {
			t.Fatalf("router %q: route log holds %d records, want %d", name, len(log), offered)
		}
		fromLog := make([]int, c.Replicas())
		for _, rec := range log {
			if rec.Rerouted {
				t.Fatalf("router %q: churn-free run logged a re-route: %+v", name, rec)
			}
			fromLog[rec.Replica]++
		}
		if !reflect.DeepEqual(fromLog, c.Routed()) {
			t.Fatalf("router %q: route log %v disagrees with counters %v", name, fromLog, c.Routed())
		}
		if c.Pending() != 0 {
			t.Fatalf("router %q left %d pending", name, c.Pending())
		}
	}
}

// TestClusterRoundRobinBalances pins the baseline: round-robin spreads
// an exactly divisible burst evenly.
func TestClusterRoundRobinBalances(t *testing.T) {
	c, err := New(WithReplicas(3), WithBuilder(buildReplica(t, 630)))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(630, 9, 12)...)
	c.Run(nil)
	for i, n := range c.Routed() {
		if n != 3 {
			t.Fatalf("round-robin routed %d to replica %d, want 3 (counts %v)", n, i, c.Routed())
		}
	}
}

// TestClusterRouteLogRing pins the opt-in retention bound: the log
// keeps only the last n dispatches, oldest-first, while the default
// (no WithRouteLog) retains nothing.
func TestClusterRouteLogRing(t *testing.T) {
	const offered, keep = 9, 4
	c, err := New(WithReplicas(2), WithBuilder(buildReplica(t, 635)), WithRouteLog(keep))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(635, offered, 10)...)
	c.Run(nil)
	log := c.RouteLog()
	if len(log) != keep {
		t.Fatalf("route log holds %d records, want the last %d", len(log), keep)
	}
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Fatalf("route log out of order at %d: %+v after %+v", i, log[i], log[i-1])
		}
	}

	def, err := New(WithReplicas(2), WithBuilder(buildReplica(t, 635)))
	if err != nil {
		t.Fatal(err)
	}
	def.Submit(burstRequests(635, offered, 10)...)
	def.Run(nil)
	if got := def.RouteLog(); got != nil {
		t.Fatalf("default cluster retained %d route records, want none", len(got))
	}
}

// TestClusterFleetAdmissionSheds drives a burst far past one replica's
// capacity through a strained fleet-level SLO guard and checks the
// router-level shed path: sheds are emitted as FleetReplica records,
// counted by Shed, and never reach a replica.
func TestClusterFleetAdmissionSheds(t *testing.T) {
	const offered = 24
	// Calibrate the guard from an unguarded closed-loop run, the
	// openloop-study idiom: measured fleet capacity (completions per
	// busy second, no idle arrival gaps inflating the clock) anchors the
	// overload rate, and a TTFT target just above the unqueued forward
	// latency can only breach through queueing. Dispatch shadows the
	// simulated clock, so the overload must stay moderate — arrivals
	// need to outlast the first prefills for the quantiles to reach the
	// sample floor while later requests are still undecided.
	base, err := New(WithReplicas(2), WithRouter("least-loaded"), WithBuilder(buildReplica(t, 640)))
	if err != nil {
		t.Fatal(err)
	}
	base.Submit(burstRequests(640, offered, 0)...)
	var maxForward, clockEnd float64
	completed := 0
	base.Run(func(ev Event) {
		if ev.Phase == engine.PhasePrefill && ev.Latency > maxForward {
			maxForward = ev.Latency
		}
		if ev.End > clockEnd {
			clockEnd = ev.End
		}
		if ev.Done {
			completed++
		}
	})
	rate := 6 * float64(completed) / clockEnd

	c, err := New(WithReplicas(2), WithRouter("least-loaded"), WithBuilder(buildReplica(t, 640)),
		WithAdmission(&engine.SLOAdmission{TTFTp95: maxForward * 1.05, MinSamples: 2, ShedFactor: 1.2}))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(burstRequests(640, offered, rate)...)
	shedEvents := 0
	c.Run(func(ev Event) {
		if ev.Phase == engine.PhaseShed {
			if ev.Replica != FleetReplica {
				t.Fatalf("fleet-admission shed attributed to replica %d: %+v", ev.Replica, ev)
			}
			if !ev.Done {
				t.Fatalf("shed event not terminal: %+v", ev)
			}
			shedEvents++
		}
	})
	if shedEvents == 0 {
		t.Fatalf("strained fleet admission shed nothing at %.1f req/s (6x capacity)", rate)
	}
	if c.Shed() != shedEvents {
		t.Fatalf("Shed() = %d but %d shed events emitted", c.Shed(), shedEvents)
	}
	routed := 0
	for _, n := range c.Routed() {
		routed += n
	}
	if routed+shedEvents != offered {
		t.Fatalf("routed %d + shed %d ≠ offered %d", routed, shedEvents, offered)
	}
}

// TestAdmissionRecordContract runs one set of policies through both
// admission sites, a session's admission pass and a cluster's fleet
// door, and checks the record contract they share: each deferred
// request gets exactly one PhaseDeferred record and still completes,
// Deferred() counts at least every record, and each shed request gets
// exactly one terminal PhaseShed record and runs nothing. Fleet-door
// records are tagged FleetReplica.
func TestAdmissionRecordContract(t *testing.T) {
	const seed = 700
	deferPair := []workload.Request{
		{ID: 0, PromptTokens: 16, DecodeTokens: 3},
		{ID: 1, PromptTokens: 16, DecodeTokens: 2},
		{ID: 2, PromptTokens: 16, DecodeTokens: 2},
	}
	policies := []struct {
		name   string
		policy engine.AdmissionPolicy
		reqs   []workload.Request
	}{
		// Defers request 1 while anything is in flight; idle promotion
		// or the drained fleet lets it through.
		{"defer-while-busy", decideFunc(func(req workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision {
			if req.ID == 1 && snap.Active > 0 {
				return engine.AdmissionDefer
			}
			return engine.AdmissionAdmit
		}), deferPair},
		// Defers request 1 on every pass: only the idle promotion lets it
		// through, once nothing else is in flight.
		{"defer-always", decideFunc(func(req workload.Request, _ engine.SLOSnapshot) engine.AdmissionDecision {
			if req.ID == 1 {
				return engine.AdmissionDefer
			}
			return engine.AdmissionAdmit
		}), deferPair},
		{"shed-all", decideFunc(func(workload.Request, engine.SLOSnapshot) engine.AdmissionDecision {
			return engine.AdmissionShed
		}), burstRequests(seed, 6, 8)},
	}
	sites := []struct {
		name  string
		fleet bool
		// run serves reqs under policy and returns the events with the
		// site's shed and deferral counters.
		run func(t *testing.T, policy engine.AdmissionPolicy, reqs []workload.Request) ([]Event, int, int)
	}{
		{"session", false, func(t *testing.T, policy engine.AdmissionPolicy, reqs []workload.Request) ([]Event, int, int) {
			e, err := buildReplica(t, seed, engine.WithAdmission(policy))(0)
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession(engine.WithMaxConcurrent(2))
			s.Submit(reqs...)
			var evs []Event
			s.Run(func(ev engine.StepEvent) { evs = append(evs, Event{StepEvent: ev}) })
			return evs, s.Shed(), s.Deferred()
		}},
		{"fleet-door", true, func(t *testing.T, policy engine.AdmissionPolicy, reqs []workload.Request) ([]Event, int, int) {
			c, err := New(WithReplicas(2), WithBuilder(buildReplica(t, seed)),
				WithMaxConcurrent(2), WithAdmission(policy))
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(reqs...)
			var evs []Event
			c.Run(func(ev Event) { evs = append(evs, ev) })
			return evs, c.Shed(), c.Deferred()
		}},
	}
	for _, p := range policies {
		for _, site := range sites {
			t.Run(p.name+"/"+site.name, func(t *testing.T) {
				evs, shed, deferred := site.run(t, p.policy, p.reqs)
				deferrals, sheds := map[int]int{}, map[int]int{}
				done, computed := map[int]bool{}, map[int]bool{}
				records := 0
				for _, ev := range evs {
					switch ev.Phase {
					case engine.PhaseDeferred, engine.PhaseShed:
						if site.fleet && ev.Replica != FleetReplica {
							t.Fatalf("fleet-door record tagged replica %d: %+v", ev.Replica, ev)
						}
						if ev.Tokens != 0 || ev.Latency != 0 || ev.Batch != 0 {
							t.Fatalf("admission record carries work: %+v", ev)
						}
						if ev.Phase == engine.PhaseShed {
							if !ev.Done {
								t.Fatalf("shed record must be terminal: %+v", ev)
							}
							sheds[ev.Request]++
							continue
						}
						if ev.Done {
							t.Fatalf("deferral record marked Done: %+v", ev)
						}
						deferrals[ev.Request]++
						records++
					default:
						computed[ev.Request] = true
						if ev.Done {
							done[ev.Request] = true
						}
					}
				}
				for id, n := range deferrals {
					if n != 1 {
						t.Fatalf("request %d got %d PhaseDeferred records, want exactly 1", id, n)
					}
					if !done[id] {
						t.Fatalf("deferred request %d never completed", id)
					}
				}
				if deferred < records {
					t.Fatalf("Deferred() = %d for %d deferral records", deferred, records)
				}
				for id, n := range sheds {
					if n != 1 || computed[id] {
						t.Fatalf("request %d got %d shed records, computed %v", id, n, computed[id])
					}
				}
				if shed != len(sheds) {
					t.Fatalf("Shed() = %d for %d shed requests", shed, len(sheds))
				}
				switch p.name {
				case "defer-while-busy", "defer-always":
					if records == 0 || shed != 0 || len(done) != len(p.reqs) {
						t.Fatalf("%d deferral records, %d shed, %d of %d completed; want a deferral and every request served",
							records, shed, len(done), len(p.reqs))
					}
				case "shed-all":
					if len(sheds) != len(p.reqs) {
						t.Fatalf("shed %d of %d requests", len(sheds), len(p.reqs))
					}
				}
			})
		}
	}
}

// TestClusterRejectsBadInputs covers constructor and option validation:
// every invalid or conflicting configuration must error from New, never
// surface mid-run.
func TestClusterRejectsBadInputs(t *testing.T) {
	build := buildReplica(t, 650)
	boom := func(int) (*engine.Engine, error) {
		return engine.New(&moe.Config{Name: "bad"}, hw.A6000Platform(), engine.HybriMoEFramework())
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"no builder", nil},
		{"zero replicas", []Option{WithReplicas(0), WithBuilder(build)}},
		{"failing builder", []Option{WithReplicas(2), WithBuilder(boom)}},
		{"nil builder", []Option{WithBuilder(nil)}},
		{"unknown router", []Option{WithBuilder(build), WithRouter("warp-drive")}},
		{"empty router name", []Option{WithBuilder(build), WithRouter("")}},
		{"zero concurrency", []Option{WithBuilder(build), WithMaxConcurrent(0)}},
		{"failure out of range", []Option{
			WithReplicas(2), WithBuilder(build), WithFailure(2, 0.5, FailStall)}},
		{"failure negative time", []Option{
			WithReplicas(2), WithBuilder(build), WithFailure(0, -1, FailStall)}},
		{"failure NaN time", []Option{
			WithReplicas(2), WithBuilder(build), WithFailure(1, math.NaN(), FailStall)}},
		{"failure infinite time", []Option{
			WithReplicas(2), WithBuilder(build), WithFailure(1, math.Inf(1), FailDeath)}},
		{"failure unknown kind", []Option{
			WithReplicas(2), WithBuilder(build), WithFailure(0, 0.5, FailureKind(9))}},
		{"duplicate failure", []Option{
			WithReplicas(2), WithBuilder(build),
			WithFailure(1, 0.3, FailStall), WithFailure(1, 0.6, FailDeath)}},
		{"zero-delta scale", []Option{
			WithBuilder(build), WithScalePlan(ScaleEvent{At: 0.5})}},
		{"scale NaN time", []Option{
			WithReplicas(2), WithBuilder(build), WithScalePlan(ScaleEvent{At: math.NaN(), Delta: -1})}},
		{"scale infinite time", []Option{
			WithBuilder(build), WithScalePlan(ScaleEvent{At: math.Inf(-1), Delta: 1})}},
		{"scale below one replica", []Option{
			WithReplicas(2), WithBuilder(build), WithScalePlan(ScaleEvent{At: 0.5, Delta: -2})}},
		{"zero route log", []Option{WithBuilder(build), WithRouteLog(0)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
}

// badRouter always picks out of range.
type badRouter struct{}

func (badRouter) Name() string                             { return "bad" }
func (badRouter) Pick(workload.Request, []ReplicaView) int { return 99 }

// TestClusterPanicsOnBadPick pins the scheduler-bug convention: a
// router pick outside the eligible views panics instead of corrupting
// accounting. The double replaces the built router directly, because
// a registration would outlive the test.
func TestClusterPanicsOnBadPick(t *testing.T) {
	c, err := New(WithReplicas(2), WithBuilder(buildReplica(t, 660)))
	if err != nil {
		t.Fatal(err)
	}
	c.router = badRouter{}
	c.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range router pick did not panic")
		}
	}()
	c.Step()
}

// TestClusterDropsZeroWork pins the Submit contract shared with Session.
func TestClusterDropsZeroWork(t *testing.T) {
	c, err := New(WithBuilder(buildReplica(t, 670)))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(workload.Request{ID: 0}, workload.Request{ID: 1, PromptTokens: 8, DecodeTokens: 1})
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after a zero-work submission, want 1", got)
	}
	c.Run(nil)
}

// TestClusterDeliversFinalBatchEvents is the regression pin for trailing
// batch members: when a replica's last iteration is a merged batch, its
// session queues the other members' events (Done included) after
// Pending has already reached 0. Cluster.Step alone — at one worker or
// two, on a replica retiring by scale-down, and on a replica that dies
// or stalls after its last batch — must still deliver exactly one Done
// per request.
func TestClusterDeliversFinalBatchEvents(t *testing.T) {
	const n = 8
	reqs := make([]workload.Request, n)
	for i := range reqs {
		// Decode-only and equal length: each replica batches its whole
		// share and finishes it in one final multi-request iteration.
		reqs[i] = workload.Request{ID: i, DecodeTokens: 3}
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
		{"parallel", []Option{WithWorkers(2)}},
		{"scale-down", []Option{WithScalePlan(ScaleEvent{At: 1e-9, Delta: -1})}},
		{"death", []Option{WithFailure(1, 10, FailDeath)}},
		{"stall", []Option{WithFailure(1, 10, FailStall)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{
				WithReplicas(2), WithRouter("round-robin"), WithSeed(950),
				WithBuilder(buildReplica(t, 950, engine.WithBatchPolicy("greedy", 64))),
				WithMaxConcurrent(n),
			}, tc.opts...)
			c, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(reqs...)
			done := map[int]int{}
			maxBatch := 0
			c.Run(func(ev Event) {
				if ev.Kind == EventStep && ev.Done {
					done[ev.Request]++
				}
				maxBatch = max(maxBatch, ev.BatchSize)
			})
			if maxBatch < 2 {
				t.Fatalf("no multi-request batch formed (max size %d); the scenario lost its point", maxBatch)
			}
			for id := 0; id < n; id++ {
				if done[id] != 1 {
					t.Fatalf("request %d ended %d times through Cluster.Step (want 1); done=%v", id, done[id], done)
				}
			}
			if c.Pending() != 0 {
				t.Fatalf("%d requests still pending after Run", c.Pending())
			}
		})
	}
}
