package engine

import (
	"reflect"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

func reclaimEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(),
		WithCacheRatio(0.25), WithSeed(900))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSessionReclaimUnstarted pins the reclaim contract: everything
// that has not run a compute step — scheduled future arrivals, the
// admission queue, admitted-but-never-stepped requests — comes back in
// submission order, while started work stays and finishes.
func TestSessionReclaimUnstarted(t *testing.T) {
	s := reclaimEngine(t).NewSession(WithMaxConcurrent(1))
	reqs := []workload.Request{
		{ID: 10, PromptTokens: 32, DecodeTokens: 2},
		{ID: 11, PromptTokens: 16, DecodeTokens: 2},
		{ID: 12, PromptTokens: 16, DecodeTokens: 2},
		{ID: 13, PromptTokens: 16, DecodeTokens: 2},
	}
	s.Submit(reqs...)
	if _, ok := s.Step(); !ok {
		t.Fatal("session refused its first step")
	}

	got := s.Reclaim()
	if len(got) != 3 {
		t.Fatalf("reclaimed %d requests, want the 3 unstarted", len(got))
	}
	for i, want := range []int{11, 12, 13} {
		if got[i].ID != want {
			t.Fatalf("reclaimed[%d].ID = %d, want %d (submission order)", i, got[i].ID, want)
		}
	}

	// The started request is untouched: it alone drains to completion.
	done := map[int]bool{}
	s.Run(func(ev StepEvent) {
		if ev.Done {
			done[ev.Request] = true
		}
	})
	if len(done) != 1 || !done[10] {
		t.Fatalf("post-reclaim completions %v, want exactly request 10", done)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d pending after drain", s.Pending())
	}
}

// TestSessionReclaimFutureArrivals pins the arrival-heap reclaim:
// requests still scheduled as future arrivals are reclaimed with their
// original stamps intact and the emptied session refuses to step.
func TestSessionReclaimFutureArrivals(t *testing.T) {
	s := reclaimEngine(t).NewSession()
	reqs := []workload.Request{
		{ID: 0, PromptTokens: 16, DecodeTokens: 1, Arrival: 0.5},
		{ID: 1, PromptTokens: 16, DecodeTokens: 1, Arrival: 0.1},
		{ID: 2, PromptTokens: 16, DecodeTokens: 1, Arrival: 0.9},
	}
	s.Submit(reqs...)

	got := s.Reclaim()
	if len(got) != 3 {
		t.Fatalf("reclaimed %d of 3 scheduled arrivals", len(got))
	}
	for i, r := range got {
		// Submission order, not arrival order — the caller re-enqueues
		// by arrival and must not lose the original stable tiebreak.
		if r.ID != reqs[i].ID || r.Arrival != reqs[i].Arrival {
			t.Fatalf("reclaimed[%d] = %+v, want %+v", i, r, reqs[i])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after full reclaim", s.Pending())
	}
	if _, ok := s.Step(); ok {
		t.Fatal("emptied session agreed to step")
	}
}

// TestSessionReclaimKeepsEmissions pins that Reclaim takes only
// requests: a merged batch's trailing events, queued when Reclaim runs,
// still come out of the next Steps in batch order with the batch's
// ordinal, exactly as on a twin session that never reclaimed.
func TestSessionReclaimKeepsEmissions(t *testing.T) {
	submit := func(s *Session) {
		s.Submit(
			workload.Request{ID: 10, DecodeTokens: 3},
			workload.Request{ID: 11, DecodeTokens: 3},
			workload.Request{ID: 12, DecodeTokens: 3},
			workload.Request{ID: 20, DecodeTokens: 3, Arrival: 9},
			workload.Request{ID: 21, DecodeTokens: 3, Arrival: 5},
		)
	}
	twin := newEngineOpts(t, 950, WithBatchPolicy("greedy", 64)).NewSession(WithMaxConcurrent(3))
	submit(twin)
	var want []StepEvent
	for i := 0; i < 3; i++ {
		ev, ok := twin.Step()
		if !ok {
			t.Fatal("twin session refused to step")
		}
		want = append(want, ev)
	}

	s := newEngineOpts(t, 950, WithBatchPolicy("greedy", 64)).NewSession(WithMaxConcurrent(3))
	submit(s)
	first, ok := s.Step()
	if !ok {
		t.Fatal("session refused its first step")
	}
	if first.BatchSize != 3 {
		t.Fatalf("first iteration merged %d requests, want all 3 in flight", first.BatchSize)
	}
	got := s.Reclaim()
	if len(got) != 2 || got[0].ID != 20 || got[1].ID != 21 {
		t.Fatalf("reclaimed %+v, want the future arrivals 20 then 21", got)
	}
	if !s.HasEmission() {
		t.Fatal("Reclaim dropped the batch's queued events")
	}
	evs := []StepEvent{first}
	for i := 0; i < 2; i++ {
		ev, ok := s.Step()
		if !ok {
			t.Fatal("Step refused a queued emission")
		}
		if ev.Batch != first.Batch {
			t.Fatalf("trailing event %d carries batch %d, want %d", i, ev.Batch, first.Batch)
		}
		evs = append(evs, ev)
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events after Reclaim diverged from the twin:\n  got:  %+v\n  want: %+v", evs, want)
	}
}

// TestSessionReclaimResubmit pins the round trip the cluster rides:
// requests reclaimed from one session serve to completion on another,
// arrival stamps preserved.
func TestSessionReclaimResubmit(t *testing.T) {
	a := reclaimEngine(t).NewSession(WithMaxConcurrent(2))
	a.Submit(
		workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 2, Arrival: 0.01},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 2, Arrival: 0.02},
		workload.Request{ID: 2, PromptTokens: 16, DecodeTokens: 2, Arrival: 0.03},
	)
	if _, ok := a.Step(); !ok {
		t.Fatal("session refused its first step")
	}
	moved := a.Reclaim()
	if len(moved) == 0 {
		t.Fatal("nothing reclaimed; scenario never exercised the move")
	}

	b := reclaimEngine(t).NewSession(WithMaxConcurrent(2))
	b.Submit(moved...)
	done := map[int]bool{}
	b.Run(func(ev StepEvent) {
		if ev.Done {
			done[ev.Request] = true
		}
	})
	if len(done) != len(moved) {
		t.Fatalf("second session completed %d of %d reclaimed requests", len(done), len(moved))
	}
	for _, r := range moved {
		if !done[r.ID] {
			t.Fatalf("reclaimed request %d never completed on the second session", r.ID)
		}
	}
}
