package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/workload"
)

// parallelScenario is one fleet shape the window ≡ lockstep contract is
// pinned over. Every scenario is rebuilt from scratch per run so no
// state leaks between runs. needs names a Metrics field that must be
// positive in the reference run, or the scenario lost its point; wide
// requires some window to run more than one replica.
type parallelScenario struct {
	name  string
	opts  func(t *testing.T) []Option
	reqs  func() []workload.Request
	needs string
	wide  bool
}

// parallelScenarios spans the coupling surfaces a window must not
// perturb: plain routing, stateful affinity routing, fleet admission
// (shed/defer + the tally-fed quantiles, and deferred heads that shrink
// a window to one step) over solo and merged batches, failure churn
// with re-routes, elastic
// scale-down draining, merged batches whose trailing events outlive
// Pending, and disaggregated fleets whose prefill clocks bound the
// horizon, with and without churn.
func parallelScenarios() []parallelScenario {
	return []parallelScenario{
		{
			name: "burst-round-robin",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("round-robin"), WithSeed(900),
					WithBuilder(buildReplica(t, 900)), WithMaxConcurrent(2),
				}
			},
			reqs: func() []workload.Request { return burstRequests(900, 24, 10) },
			wide: true,
		},
		{
			name: "burst-affinity",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("affinity"), WithSeed(910),
					WithBuilder(buildReplica(t, 910)), WithMaxConcurrent(2),
				}
			},
			reqs: func() []workload.Request { return burstRequests(910, 24, 10) },
		},
		{
			name: "admission-guarded",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("least-loaded"), WithSeed(920),
					WithBuilder(buildReplica(t, 920)), WithMaxConcurrent(2),
					WithAdmission(&engine.SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 1.2}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(920, 24, 16) },
			needs: "Shed",
		},
		{
			// Fleet-door admission in front of merged batches: the door's
			// quantiles are fed by every member of a batch.
			name: "batched-admission",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("affinity"), WithSeed(925),
					WithBuilder(buildReplica(t, 925, engine.WithBatchPolicy("greedy", 64))),
					WithMaxConcurrent(3),
					WithAdmission(&engine.SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 1.5}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(925, 30, 20) },
			needs: "Shed",
			wide:  true,
		},
		{
			name: "churn-stall-scale-up",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("round-robin"), WithSeed(800),
					WithBuilder(buildReplica(t, 800)), WithMaxConcurrent(2),
					WithFailure(1, 0.2, FailStall),
					WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(800, 20, 12) },
			needs: "Rerouted",
		},
		{
			name: "scale-down-drain",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("round-robin"), WithSeed(930),
					WithBuilder(buildReplica(t, 930)), WithMaxConcurrent(2),
					WithScalePlan(ScaleEvent{At: 0.2, Delta: -2}, ScaleEvent{At: 0.5, Delta: 1}),
				}
			},
			reqs: func() []workload.Request { return burstRequests(930, 20, 12) },
		},
		{
			name: "greedy-batched-scale-down",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("round-robin"), WithSeed(960),
					WithBuilder(buildReplica(t, 960, engine.WithBatchPolicy("greedy", 64))),
					WithMaxConcurrent(4),
					WithScalePlan(ScaleEvent{At: 0.3, Delta: -1}),
				}
			},
			reqs: func() []workload.Request {
				// Two waves of equal decode-only requests: every replica
				// ends each wave on a multi-request batch, idles with its
				// trailing events queued, then takes new work (or, for
				// the drained replica, retires).
				var reqs []workload.Request
				for i := 0; i < 12; i++ {
					reqs = append(reqs, workload.Request{ID: i, DecodeTokens: 3, Arrival: float64(i/6) * 0.5})
				}
				return reqs
			},
		},
		{
			name: "pooled-1-2",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("affinity"), WithSeed(840),
					WithBuilder(buildReplica(t, 840)), WithMaxConcurrent(2),
					WithPools(PoolSpec{Prefill: 1, Decode: 2}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(840, 10, 12) },
			needs: "Handoffs",
		},
		{
			// A deferred fleet-door head holds the horizon at or behind
			// the trailing clock, so the window shrinks to one step and
			// dispatch judges the head again after it.
			name: "deferring",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("affinity"), WithSeed(970),
					WithBuilder(buildReplica(t, 970)), WithMaxConcurrent(2),
					WithAdmission(&engine.SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 100}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(970, 24, 16) },
			needs: "Deferred",
		},
		{
			name: "pooled-deferring",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("least-loaded"), WithSeed(980),
					WithBuilder(buildReplica(t, 980)), WithMaxConcurrent(2),
					WithPools(PoolSpec{Prefill: 2, Decode: 2}),
					WithAdmission(&engine.SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 3}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(980, 24, 16) },
			needs: "Deferred",
		},
		{
			// Churn on both pools: a stalled decode replica, a prefill
			// replica's death, mixed scale-up joins and a drain, over
			// merged batches.
			name: "pooled-churn",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("affinity"), WithSeed(990),
					WithBuilder(buildReplica(t, 990, engine.WithBatchPolicy("greedy", 64))),
					WithMaxConcurrent(3),
					WithPools(PoolSpec{Prefill: 2, Decode: 2}),
					WithFailure(3, 0.25, FailStall),
					WithFailure(0, 0.5, FailDeath),
					WithScalePlan(ScaleEvent{At: 0.3, Delta: 2}, ScaleEvent{At: 0.7, Delta: -1}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(990, 40, 20) },
			needs: "Handoffs",
			wide:  true,
		},
		{
			name: "pooled-1-3",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("round-robin"), WithSeed(991),
					WithBuilder(buildReplica(t, 991)), WithMaxConcurrent(2),
					WithPools(PoolSpec{Prefill: 1, Decode: 3}),
				}
			},
			reqs:  func() []workload.Request { return burstRequests(991, 30, 8) },
			needs: "Handoffs",
		},
	}
}

// scenarioRun is one drained scenario: its serialised event log, the
// fleet's metrics, which a divergent merge would skew, and the most
// replicas any one window ran.
type scenarioRun struct {
	log     []byte
	metrics Metrics
	widest  int
}

// runScenario drains one freshly-built cluster at the given worker
// count, taking each event from step: Cluster.Step, or the lockstep
// reference.
func runScenario(t *testing.T, sc parallelScenario, workers int, step func(*Cluster) (Event, bool)) scenarioRun {
	t.Helper()
	opts := append(sc.opts(t), WithWorkers(workers))
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(sc.reqs()...)
	var run scenarioRun
	var events []Event
	for {
		ev, ok := step(c)
		if !ok {
			break
		}
		events = append(events, ev)
		run.widest = max(run.widest, len(c.cands))
	}
	if len(events) == 0 {
		t.Fatalf("%s emitted no events", sc.name)
	}
	var buf bytes.Buffer
	if err := engine.WriteEventLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	run.log = buf.Bytes()
	run.metrics = c.Metrics()
	return run
}

// lockstepStep is the fleet's reference stepping rule, kept for tests
// the way internal/sched and internal/cache keep theirs: each compute
// event is one Session.Step on the steppable replica whose clock trails
// the fleet (ties to the lowest index), after firing any lifecycle
// action that clock has reached, with dispatch re-run between steps.
// Step's horizon windows must reproduce its stream event for event.
func (c *Cluster) lockstepStep() (ev Event, ok bool) {
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
				c.tickLife(now)
				continue
			}
			r := c.replicas[pick]
			sev, sok := r.ses.Step()
			if !sok {
				panic(fmt.Sprintf("cluster: replica %d session refused to step with %d pending",
					pick, r.ses.Pending()))
			}
			r.lease = r.eng.Clock()
			c.door.Observe(sev)
			c.exportPrefilled(pick)
			c.retireDrained(pick, r.eng.Clock())
			c.steps++
			return Event{Replica: pick, StepEvent: sev}, true
		}
		if at, a, more := c.life.PopMin(); more {
			c.applyLife(a, at)
			continue
		}
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

// TestParallelMatchesSerial is the determinism contract: at every
// worker count, 1 included, over every fleet shape, Step's windowed
// stream is byte-identical to the lockstep reference's and the fleet's
// metrics agree. Wide scenarios, a pooled one among them, must also
// run some window over more than one replica, or the horizon has
// collapsed to lockstep. This is the test CI runs under -race — the worker pool's only shared mutable
// state must be the per-replica stacks it partitions.
func TestParallelMatchesSerial(t *testing.T) {
	for _, sc := range parallelScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := runScenario(t, sc, 1, (*Cluster).lockstepStep)
			if sc.needs != "" && reflect.ValueOf(ref.metrics).FieldByName(sc.needs).Int() == 0 {
				t.Fatalf("reference run has no %s; the scenario lost its point", sc.needs)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got := runScenario(t, sc, workers, (*Cluster).Step)
				if diff := diffJSONL(ref.log, got.log); diff != "" {
					t.Fatalf("workers=%d stream diverged from lockstep:\n%s", workers, diff)
				}
				if got.metrics != ref.metrics {
					t.Fatalf("workers=%d metrics %+v, lockstep %+v", workers, got.metrics, ref.metrics)
				}
				if sc.wide && got.widest < 2 {
					t.Fatalf("workers=%d: no window ran more than one replica", workers)
				}
			}
		})
	}
}

// TestParallelGoldensUnregenerated reruns the committed fleet goldens
// with WithWorkers(4): windows fanned out over goroutines must
// reproduce the exact committed bytes, with no regeneration. (The two
// engine-level goldens never touch cluster code and are pinned by their
// own test.)
func TestParallelGoldensUnregenerated(t *testing.T) {
	cases := []struct {
		golden string
		opts   []Option
		reqs   []workload.Request
	}{
		{
			golden: "golden_fleet-churn.jsonl",
			opts: []Option{
				WithReplicas(3), WithRouter("round-robin"), WithSeed(800),
				WithBuilder(buildReplica(t, 800)), WithMaxConcurrent(2),
				WithFailure(1, 0.2, FailStall),
				WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}),
				WithWorkers(4),
			},
			reqs: burstRequests(800, 20, 12),
		},
		{
			golden: "golden_disagg-handoff.jsonl",
			opts: []Option{
				WithReplicas(3), WithRouter("affinity"), WithSeed(840),
				WithBuilder(buildReplica(t, 840)), WithMaxConcurrent(2),
				WithPools(PoolSpec{Prefill: 1, Decode: 2}),
				WithWorkers(4),
			},
			reqs: burstRequests(840, 10, 12),
		},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			c, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(tc.reqs...)
			var events []Event
			c.Run(func(ev Event) { events = append(events, ev) })
			var buf bytes.Buffer
			if err := engine.WriteEventLog(&buf, events); err != nil {
				t.Fatal(err)
			}
			if diff := diffJSONL(want, buf.Bytes()); diff != "" {
				t.Fatalf("WithWorkers(4) drifted from committed %s:\n%s", tc.golden, diff)
			}
		})
	}
}

// TestQueueRingPopsWithoutAllocating is the head-drop alloc regression
// pin: draining the fleet emission queue through Step must not allocate
// once the ring's backing array exists — the old c.queue[1:] re-slice
// kept the drained prefix live and forced append to grow a fresh array
// every refill cycle.
func TestQueueRingPopsWithoutAllocating(t *testing.T) {
	c, err := New(WithBuilder(buildReplica(t, 940)))
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		for i := 0; i < 64; i++ {
			c.queue = append(c.queue, Event{Replica: FleetReplica, StepEvent: engine.StepEvent{
				Request: i, Phase: engine.PhaseShed, Done: true,
			}})
		}
	}
	fill() // establish ring capacity before measuring
	for c.qhead < len(c.queue) {
		if _, ok := c.Step(); !ok {
			t.Fatal("Step refused with queued events")
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		for i := 0; i < 64; i++ {
			if _, ok := c.Step(); !ok {
				t.Fatal("Step refused with queued events")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("queue ring drain allocated %.1f times per refill cycle, want 0", allocs)
	}
	if len(c.queue) != 0 || c.qhead != 0 {
		t.Fatalf("drained ring not reset: len %d head %d", len(c.queue), c.qhead)
	}
}

// TestViewsScratchReused pins the dispatch-time allocation diet: after
// one warm-up, assembling router views reuses the per-cluster scratch
// buffer instead of allocating per dispatched request.
func TestViewsScratchReused(t *testing.T) {
	c, err := New(WithReplicas(4), WithBuilder(buildReplica(t, 950)))
	if err != nil {
		t.Fatal(err)
	}
	head := &fleetRequest{req: workload.Request{ID: 1, PromptTokens: 8, DecodeTokens: 2}}
	c.views(0, head) // size the scratch
	allocs := testing.AllocsPerRun(10, func() {
		if len(c.views(0, head)) != 4 {
			t.Fatal("expected all four replicas in view")
		}
	})
	if allocs > 0 {
		t.Fatalf("views allocated %.1f times per call after warm-up, want 0", allocs)
	}
}

// TestClusterWorkersValidation mirrors the option-validation idiom for
// the new knob.
func TestClusterWorkersValidation(t *testing.T) {
	build := buildReplica(t, 960)
	for _, n := range []int{0, -1} {
		if _, err := New(WithBuilder(build), WithWorkers(n)); err == nil {
			t.Fatalf("WithWorkers(%d) accepted", n)
		}
	}
	for _, n := range []int{1, 2, 16} {
		if _, err := New(WithBuilder(build), WithWorkers(n)); err != nil {
			t.Fatalf("WithWorkers(%d) rejected: %v", n, err)
		}
	}
}

// emptyOnFourth is a faulty batch former: its fourth Form call returns
// an empty batch, which the session rejects with a panic.
type emptyOnFourth struct{ calls int }

func (*emptyOnFourth) Name() string { return "empty-on-fourth" }

func (b *emptyOnFourth) Form(_ float64, _ []reqsched.Request, lead int) []int {
	if b.calls++; b.calls == 4 {
		return nil
	}
	return []int{lead}
}

func init() {
	reqsched.RegisterBatch("test-empty-on-fourth", func(int) (reqsched.BatchPolicy, error) {
		return &emptyOnFourth{}, nil
	})
}

// A replica step that panics inside a horizon window re-panics its value
// on the caller at every worker count, where a recover can see it,
// instead of killing the process from a window goroutine.
func TestWindowPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := New(WithReplicas(4), WithRouter("round-robin"), WithSeed(970),
				WithBuilder(buildReplica(t, 970, engine.WithBatchPolicy("test-empty-on-fourth", 64))),
				WithMaxConcurrent(2), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(burstRequests(970, 16, 0)...)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "formed an empty batch") {
					t.Fatalf("recovered %q, want the session's empty-batch panic", msg)
				}
			}()
			c.Run(func(Event) {})
		})
	}
}

// TestParallelSingleReplica pins the degenerate window: one replica,
// many workers — every window has exactly one candidate, runs inline,
// and still reproduces the lockstep reference's stream.
func TestParallelSingleReplica(t *testing.T) {
	const seed, n, rate = 600, 14, 6.0
	ref, err := New(WithBuilder(buildReplica(t, seed)), WithMaxConcurrent(3))
	if err != nil {
		t.Fatal(err)
	}
	ref.Submit(burstRequests(seed, n, rate)...)
	var want []Event
	for {
		ev, ok := ref.lockstepStep()
		if !ok {
			break
		}
		want = append(want, ev)
	}

	par, err := New(WithBuilder(buildReplica(t, seed)), WithMaxConcurrent(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	par.Submit(burstRequests(seed, n, rate)...)
	i := 0
	par.Run(func(ev Event) {
		if i >= len(want) {
			t.Fatalf("windows emitted extra event %d: %+v", i, ev)
		}
		if fmt.Sprintf("%+v", ev) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("event %d diverged:\n  lockstep: %+v\n  window:   %+v", i, want[i], ev)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("windows emitted %d events, lockstep %d", i, len(want))
	}
}
