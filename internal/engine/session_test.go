package engine

import (
	"math"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

func testRequests() []workload.Request {
	return []workload.Request{
		{ID: 0, PromptTokens: 32, DecodeTokens: 4},
		{ID: 1, PromptTokens: 64, DecodeTokens: 2},
		{ID: 2, PromptTokens: 16, DecodeTokens: 3},
	}
}

func TestSessionEventStream(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 200)
	s := e.NewSession()
	reqs := testRequests()
	s.Submit(reqs...)

	prefills := map[int]int{}
	decodes := map[int]int{}
	var prevEnd float64
	var events int
	for {
		ev, ok := s.Step()
		if !ok {
			break
		}
		events++
		if ev.Latency <= 0 {
			t.Fatalf("non-positive step latency: %+v", ev)
		}
		if ev.End < ev.Start || ev.Start < prevEnd {
			t.Fatalf("event clock not monotonic: %+v after end %v", ev, prevEnd)
		}
		prevEnd = ev.End
		if ev.Hits+ev.Misses == 0 {
			t.Fatalf("step saw no cache lookups: %+v", ev)
		}
		switch ev.Phase {
		case PhasePrefill:
			prefills[ev.Request]++
			if ev.Tokens != reqs[ev.Request].PromptTokens {
				t.Fatalf("prefill tokens %d for request %d", ev.Tokens, ev.Request)
			}
		case PhaseDecode:
			decodes[ev.Request]++
			if ev.Tokens != 1 {
				t.Fatalf("decode step tokens = %d", ev.Tokens)
			}
		}
	}
	for _, r := range reqs {
		if prefills[r.ID] != 1 {
			t.Fatalf("request %d prefilled %d times", r.ID, prefills[r.ID])
		}
		if decodes[r.ID] != r.DecodeTokens {
			t.Fatalf("request %d decoded %d steps, want %d", r.ID, decodes[r.ID], r.DecodeTokens)
		}
	}
	wantEvents := 0
	for _, r := range reqs {
		wantEvents += 1 + r.DecodeTokens
	}
	if steps := s.Metrics().Steps; events != wantEvents || steps != wantEvents {
		t.Fatalf("events = %d (Steps %d), want %d", events, steps, wantEvents)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d requests still pending after drain", s.Pending())
	}
	if _, ok := s.Step(); ok {
		t.Fatal("drained session must keep reporting done")
	}
}

// TestSessionInterleavesPhases checks the streaming property: with
// concurrency > 1, one request's decode steps interleave with another's
// prefill.
func TestSessionInterleavesPhases(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 201)
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 4},
		workload.Request{ID: 1, PromptTokens: 32, DecodeTokens: 4})

	var order []StepEvent
	s.Run(func(ev StepEvent) { order = append(order, ev) })

	// Request 1's prefill must appear between request 0's decode steps,
	// not after all of them.
	var firstDecode0, prefill1 = -1, -1
	for i, ev := range order {
		if ev.Request == 0 && ev.Phase == PhaseDecode && firstDecode0 < 0 {
			firstDecode0 = i
		}
		if ev.Request == 1 && ev.Phase == PhasePrefill {
			prefill1 = i
		}
	}
	if firstDecode0 < 0 || prefill1 < 0 {
		t.Fatalf("missing phases in event order: %+v", order)
	}
	if prefill1 > firstDecode0+1 {
		t.Fatalf("request 1 prefill at %d did not interleave with request 0 decode at %d", prefill1, firstDecode0)
	}
	// Done fires exactly once per request, on its last event.
	doneSeen := map[int]bool{}
	for _, ev := range order {
		if ev.Done {
			if doneSeen[ev.Request] {
				t.Fatalf("request %d done twice", ev.Request)
			}
			doneSeen[ev.Request] = true
		}
	}
	if len(doneSeen) != 2 {
		t.Fatalf("done events for %d requests, want 2", len(doneSeen))
	}
}

// TestSessionDropsNoOpRequests pins the degenerate Submit contract: a
// request with neither prompt nor decode tokens produces no step at
// all, rather than a phantom decode iteration.
func TestSessionDropsNoOpRequests(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 205)
	s := e.NewSession()
	s.Submit(workload.Request{ID: 0},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 1})
	var events []StepEvent
	s.Run(func(ev StepEvent) { events = append(events, ev) })
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (no-op request must emit none): %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Request != 1 {
			t.Fatalf("no-op request 0 produced event %+v", ev)
		}
	}
}

// TestSessionStreamingSubmit submits more work mid-run, the live
// request stream case.
func TestSessionStreamingSubmit(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 202)
	s := e.NewSession()
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 1})
	if _, ok := s.Step(); !ok {
		t.Fatal("first step should run")
	}
	s.Submit(workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 1})
	n := s.Run(nil)
	// Remaining: request 0 decode, request 1 prefill + decode.
	if n != 3 {
		t.Fatalf("drained %d steps after late submit, want 3", n)
	}
}

// newEngineOpts builds an engine with extra options on top of the
// standard test configuration.
func newEngineOpts(t *testing.T, seed uint64, extra ...Option) *Engine {
	t.Helper()
	opts := append([]Option{WithCacheRatio(0.25), WithSeed(seed)}, extra...)
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSessionFCFSServesInOrder pins the FCFS policy end-to-end: even
// with two slots, the first request runs to completion before the
// second advances at all.
func TestSessionFCFSServesInOrder(t *testing.T) {
	e := newEngineOpts(t, 210, WithRequestScheduler("fcfs"))
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 3},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 3})
	var order []int
	s.Run(func(ev StepEvent) { order = append(order, ev.Request) })
	for i, id := range order {
		if i < 4 && id != 0 || i >= 4 && id != 1 {
			t.Fatalf("FCFS event order %v: request 0 must fully precede request 1", order)
		}
	}
}

// TestSessionSJFFinishesShortFirst pins the SJF policy: the request
// with the fewest remaining decode tokens drains before longer ones
// advance.
func TestSessionSJFFinishesShortFirst(t *testing.T) {
	e := newEngineOpts(t, 211, WithRequestScheduler("sjf"))
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 6},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 1})
	var doneOrder []int
	s.Run(func(ev StepEvent) {
		if ev.Done {
			doneOrder = append(doneOrder, ev.Request)
		}
	})
	if len(doneOrder) != 2 || doneOrder[0] != 1 {
		t.Fatalf("SJF completion order %v, want request 1 first", doneOrder)
	}
}

// TestSessionEDFServesUrgentFirst pins the deadline-aware policy: the
// tighter deadline is served first regardless of submission order, and
// the event stream echoes the deadline for violation accounting.
func TestSessionEDFServesUrgentFirst(t *testing.T) {
	e := newEngineOpts(t, 212, WithRequestScheduler("edf"))
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 2, Deadline: 100},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 2, Deadline: 0.001})
	ev, ok := s.Step()
	if !ok || ev.Request != 1 {
		t.Fatalf("EDF first step served request %d, want the urgent 1", ev.Request)
	}
	if ev.Deadline != 0.001 {
		t.Fatalf("event deadline %v, want 0.001", ev.Deadline)
	}
	var doneOrder []int
	s.Run(func(ev StepEvent) {
		if ev.Done {
			doneOrder = append(doneOrder, ev.Request)
		}
	})
	if len(doneOrder) != 2 || doneOrder[0] != 1 {
		t.Fatalf("EDF completion order %v, want request 1 first", doneOrder)
	}
}

// decideFunc adapts a function to the AdmissionPolicy interface for
// deterministic admission tests.
type decideFunc func(req workload.Request, snap SLOSnapshot) AdmissionDecision

func (decideFunc) Name() string { return "test-policy" }
func (f decideFunc) Decide(req workload.Request, snap SLOSnapshot) AdmissionDecision {
	return f(req, snap)
}

// TestSessionAdmissionShedAccounting sheds everything and checks the
// explicit rejection records: one PhaseShed event per request, Done set,
// no compute steps, counters consistent — and the fully-shed run's
// latency summaries are zero-valued, not NaN (the report.Live
// empty-sample contract at the Session boundary).
func TestSessionAdmissionShedAccounting(t *testing.T) {
	e := newEngineOpts(t, 213, WithAdmission(decideFunc(
		func(workload.Request, SLOSnapshot) AdmissionDecision { return AdmissionShed })))
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(testRequests()...)

	var tally Tally
	sheds := map[int]int{}
	s.Run(func(ev StepEvent) {
		tally.Add(ev)
		switch ev.Phase {
		case PhaseShed:
			sheds[ev.Request]++
			if !ev.Done {
				t.Fatalf("shed record must be terminal: %+v", ev)
			}
			if ev.Latency != 0 || ev.Tokens != 0 {
				t.Fatalf("shed record must carry no work: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v in a fully-shed run", ev.Phase)
		}
	})
	if tally.ComputeEvents != 0 || tally.Shed != len(testRequests()) {
		t.Fatalf("fully-shed run folded %d compute events, %d sheds", tally.ComputeEvents, tally.Shed)
	}
	if shed := s.Metrics().Shed; shed != len(testRequests()) {
		t.Fatalf("Metrics().Shed = %d, want %d", shed, len(testRequests()))
	}
	for _, r := range testRequests() {
		if sheds[r.ID] != 1 {
			t.Fatalf("request %d shed %d times", r.ID, sheds[r.ID])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d requests pending after a full shed", s.Pending())
	}
	// Regression: the empty samples summarise to the zero value.
	for _, l := range []report.LatencyStats{tally.TTFT.Stats(), tally.TBT.Stats()} {
		if l != (report.LatencyStats{}) {
			t.Fatalf("empty sample summarised to %+v, want zero value", l)
		}
		for _, v := range []float64{l.Mean, l.P50, l.P95, l.P99} {
			if math.IsNaN(v) {
				t.Fatalf("empty-sample percentile is NaN: %+v", l)
			}
		}
	}
}

// TestSessionAdmissionDeferAccounting defers one request while another
// is in flight and checks: exactly one PhaseDeferred record despite
// repeated deferrals, the Deferred counter sees every verdict, and the
// deferred request still completes once the queue drains (the
// empty-active promotion keeps the loop live).
func TestSessionAdmissionDeferAccounting(t *testing.T) {
	e := newEngineOpts(t, 214, WithAdmission(decideFunc(
		func(req workload.Request, snap SLOSnapshot) AdmissionDecision {
			if req.ID == 1 && snap.Active > 0 {
				return AdmissionDefer
			}
			return AdmissionAdmit
		})))
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 3},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 2})

	deferrals := 0
	done := map[int]bool{}
	s.Run(func(ev StepEvent) {
		if ev.Phase == PhaseDeferred {
			deferrals++
			if ev.Request != 1 {
				t.Fatalf("deferred the wrong request: %+v", ev)
			}
		}
		if ev.Done {
			done[ev.Request] = true
		}
	})
	if deferrals != 1 {
		t.Fatalf("%d PhaseDeferred records, want exactly 1", deferrals)
	}
	m := s.Metrics()
	if m.Deferred < 1 {
		t.Fatalf("Metrics().Deferred = %d, want at least 1", m.Deferred)
	}
	if !done[0] || !done[1] {
		t.Fatalf("requests not all completed: %v", done)
	}
	if m.Shed != 0 {
		t.Fatalf("defer-only policy shed %d requests", m.Shed)
	}
}

// TestSLOAdmissionDecide unit-tests the built-in policy's thresholds:
// under-sampled admits, mild breach defers, hard breach sheds — unless
// the request carries priority, which converts the shed to a deferral.
func TestSLOAdmissionDecide(t *testing.T) {
	a := NewSLOAdmission(1.0, 0)
	sample := func(p95 float64, n int) SLOSnapshot {
		return SLOSnapshot{TTFT: report.LatencyStats{N: n, P95: p95}}
	}
	cases := []struct {
		name string
		req  workload.Request
		snap SLOSnapshot
		want AdmissionDecision
	}{
		{"under target", workload.Request{}, sample(0.5, 10), AdmissionAdmit},
		{"under-sampled breach", workload.Request{}, sample(9, 2), AdmissionAdmit},
		{"mild breach", workload.Request{}, sample(1.2, 10), AdmissionDefer},
		{"hard breach", workload.Request{}, sample(2.0, 10), AdmissionShed},
		{"hard breach, priority exempt", workload.Request{Priority: 1}, sample(2.0, 10), AdmissionDefer},
		{"hard breach, negative priority", workload.Request{Priority: -1}, sample(2.0, 10), AdmissionShed},
		{"mild breach, negative priority", workload.Request{Priority: -1}, sample(1.2, 10), AdmissionDefer},
	}
	for _, tc := range cases {
		if got := a.Decide(tc.req, tc.snap); got != tc.want {
			t.Errorf("%s: Decide = %v, want %v", tc.name, got, tc.want)
		}
	}
	if a.Name() == "" {
		t.Error("SLOAdmission must be named")
	}
	// A struct literal that only sets targets inherits the defaults:
	// a zero ShedFactor/MinSamples must not shed traffic that is
	// comfortably under its SLO.
	lit := &SLOAdmission{TTFTp95: 1.0}
	if got := lit.Decide(workload.Request{}, sample(0.5, 10)); got != AdmissionAdmit {
		t.Errorf("zero-valued literal under target: Decide = %v, want admit", got)
	}
	if got := lit.Decide(workload.Request{}, sample(2.0, 10)); got != AdmissionShed {
		t.Errorf("zero-valued literal hard breach: Decide = %v, want shed", got)
	}
}

func TestSessionBusyAccounting(t *testing.T) {
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(),
		WithCacheRatio(0.25), WithSeed(204), WithTraceRecording())
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	s.Submit(workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 3})
	var gpuTotal float64
	s.Run(func(ev StepEvent) {
		if ev.GPUBusy < 0 || ev.CPUBusy < 0 || ev.LinkBusy < 0 {
			t.Fatalf("negative busy delta: %+v", ev)
		}
		gpuTotal += ev.GPUBusy
	})
	if gpuTotal <= 0 {
		t.Fatal("GPU never busy across a served request")
	}
}
