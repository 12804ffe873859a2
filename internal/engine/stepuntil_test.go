package engine

import (
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/workload"
)

// stepUntilWorkload is the shared bursty open-loop shape both sides of
// the equivalence tests replay.
func stepUntilWorkload(seed uint64) []workload.Request {
	stream := workload.NewStream(seed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(6))
	reqs := stream.NextN(12)
	workload.CapDecode(reqs, 4)
	return reqs
}

// TestStepUntilMatchesStepLoop pins the batched stepping contract:
// driving a session through StepUntilClocked at an arbitrary ladder of
// horizons — including horizons landing mid-run, between steps, and
// past the end — and then delivering the trailing emissions with Step
// yields exactly the event sequence a plain Step loop emits on an
// equal-seed twin, and every step's pre-step clock respects its horizon
// (a step may finish past the horizon, but never starts at or beyond
// it).
func TestStepUntilMatchesStepLoop(t *testing.T) {
	const seed = 4200

	ref := newEngineOpts(t, seed, WithBatchPolicy("greedy", 64))
	rs := ref.NewSession(WithMaxConcurrent(3))
	rs.Submit(stepUntilWorkload(seed)...)
	var want []StepEvent
	rs.Run(func(ev StepEvent) { want = append(want, ev) })
	if len(want) == 0 {
		t.Fatal("reference run emitted no events")
	}
	span := want[len(want)-1].End

	e := newEngineOpts(t, seed, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(3))
	s.Submit(stepUntilWorkload(seed)...)
	horizons := []float64{span * 0.1, span * 0.25, span * 0.25, span * 0.6, span, math.Inf(1)}
	var got []StepEvent
	var clocks []float64
	for _, h := range horizons {
		n := len(got)
		got, clocks = s.StepUntilClocked(h, got, clocks)
		for _, pre := range clocks[n:] {
			if pre >= h {
				t.Fatalf("StepUntilClocked(%v) stepped a session already at clock %v", h, pre)
			}
		}
		if e.Clock() < h && s.Pending() > 0 {
			t.Fatalf("StepUntilClocked(%v) stopped at clock %v with %d pending", h, e.Clock(), s.Pending())
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("horizon ladder left %d requests pending", s.Pending())
	}
	for s.HasEmission() {
		ev, ok := s.Step()
		if !ok {
			t.Fatal("Step refused a queued emission")
		}
		got = append(got, ev)
	}
	if _, ok := s.Step(); ok {
		t.Fatal("drained session still stepping")
	}
	if len(got) != len(want) {
		t.Fatalf("StepUntilClocked and Step emitted %d events, Step loop %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d diverged:\n  step:      %+v\n  stepuntil: %+v", i, want[i], got[i])
		}
	}
}

// TestStepUntilClockedKeysAreMonotone pins the merge-key invariant the
// cluster's (clock, replica) interleave depends on: the pre-step clocks
// StepUntilClocked records are non-decreasing, one per event, and all
// strictly below the horizon.
func TestStepUntilClockedKeysAreMonotone(t *testing.T) {
	const seed = 4300
	e := newEngineOpts(t, seed, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(3))
	s.Submit(stepUntilWorkload(seed)...)

	var evs []StepEvent
	var clocks []float64
	for s.Pending() > 0 {
		h := e.Clock() + 0.05
		evs, clocks = s.StepUntilClocked(h, evs[:0], clocks[:0])
		if len(evs) != len(clocks) {
			t.Fatalf("%d events but %d clocks", len(evs), len(clocks))
		}
		for i, at := range clocks {
			if at >= h {
				t.Fatalf("step %d keyed at %v, at or past horizon %v", i, at, h)
			}
			if i > 0 && at < clocks[i-1] {
				t.Fatalf("merge keys regressed: %v after %v", at, clocks[i-1])
			}
		}
	}
}

// TestStepUntilClockedStopsAtDrain pins the fleet-driver half of the
// contract: StepUntilClocked steps only while requests are pending, so
// when the last iteration is a merged batch its trailing events stay
// queued — reported by HasEmission and delivered by Step — exactly as a
// lockstep driver that steps a replica only while Pending is positive
// would leave them.
func TestStepUntilClockedStopsAtDrain(t *testing.T) {
	e := newEngineOpts(t, 4400, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(4))
	for i := 0; i < 4; i++ {
		s.Submit(workload.Request{ID: i, DecodeTokens: 2})
	}
	evs, _ := s.StepUntilClocked(math.Inf(1), nil, nil)
	if s.Pending() != 0 {
		t.Fatalf("StepUntilClocked stopped with %d pending", s.Pending())
	}
	trailing := 0
	for s.HasEmission() {
		if _, ok := s.Step(); !ok {
			t.Fatal("Step refused a queued emission")
		}
		trailing++
	}
	if trailing == 0 {
		t.Fatal("final merged batch left no trailing events; the scenario lost its point")
	}
	if got := len(evs) + trailing; got != 8 {
		t.Fatalf("%d events in all, want one per decode token (8)", got)
	}
	if _, ok := s.Step(); ok {
		t.Fatal("drained session still stepping")
	}
}
