package engine

import (
	"math"
	"testing"

	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// TestSessionClosedLoopStreamUnchanged is the regression pin for the
// arrival plumbing: with no arrival stamps the Session must behave as
// the closed-queue loop always did — no clock jumps, zero Queued on
// every event, zero Arrival echoes — so the pre-arrival event stream
// is reproduced field for field (the new fields all zero-valued).
func TestSessionClosedLoopStreamUnchanged(t *testing.T) {
	e := newEngineOpts(t, 400)
	s := e.NewSession(WithMaxConcurrent(2))
	s.Submit(testRequests()...)
	first := true
	s.Run(func(ev StepEvent) {
		if ev.Queued != 0 || ev.Arrival != 0 {
			t.Fatalf("closed-loop event carries open-loop fields: %+v", ev)
		}
		if first && ev.Start != 0 {
			t.Fatalf("closed-loop run did not start at t=0: %+v", ev)
		}
		first = false
	})
}

// TestSessionHoldsUntilArrival pins the open-loop hold: a request whose
// arrival is in the future runs no earlier than it, with the idle gap
// crossed by a clock jump rather than a spin, and a request arriving
// exactly when it is served reports zero queue wait.
func TestSessionHoldsUntilArrival(t *testing.T) {
	e := newEngineOpts(t, 401)
	s := e.NewSession()
	s.Submit(workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 1, Arrival: 5})
	ev, ok := s.Step()
	if !ok {
		t.Fatal("held request never served")
	}
	if ev.Start != 5 {
		t.Fatalf("prefill started at %v, want the 5s arrival (clock jump)", ev.Start)
	}
	if ev.Arrival != 5 {
		t.Fatalf("event echoes arrival %v, want 5", ev.Arrival)
	}
	if ev.Queued != 0 {
		t.Fatalf("request served at its arrival instant queued %v, want 0", ev.Queued)
	}
	s.Run(nil)
	if s.Pending() != 0 {
		t.Fatalf("%d pending after drain", s.Pending())
	}
}

// TestSessionQueueInclusiveTTFT pins the new TTFT accounting: when a
// burst outpaces the server, the waiting request's prefill event
// carries the arrival→start queue wait in Queued, and Latency + Queued
// equals arrival→first-token exactly — the old forward-only TTFT stays
// recoverable from Latency alone.
func TestSessionQueueInclusiveTTFT(t *testing.T) {
	e := newEngineOpts(t, 402)
	s := e.NewSession() // concurrency 1: the second request must queue
	s.Submit(
		workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 2, Arrival: 0.001},
		workload.Request{ID: 1, PromptTokens: 32, DecodeTokens: 1, Arrival: 0.002},
	)
	var events []StepEvent
	s.Run(func(ev StepEvent) { events = append(events, ev) })
	var waited bool
	for _, ev := range events {
		switch {
		case ev.Phase == PhasePrefill && ev.Request == 1:
			if ev.Queued <= 0 {
				t.Fatalf("queued request reports no wait: %+v", ev)
			}
			if got, want := ev.Queued+ev.Latency, ev.End-ev.Arrival; math.Abs(got-want) > 1e-9 {
				t.Fatalf("Queued+Latency = %v, want arrival→first-token %v", got, want)
			}
			waited = true
		case ev.Phase == PhaseDecode:
			if ev.Queued != 0 {
				t.Fatalf("decode step of a prefilled request carries queue wait: %+v", ev)
			}
		}
		if ev.Start+1e-12 < ev.Arrival {
			t.Fatalf("request served before it arrived: %+v", ev)
		}
	}
	if !waited {
		t.Fatal("second request never queued behind the first")
	}
}

// TestSessionDecodeOnlyArrivalQueueWait covers the prompt-less burst: a
// decode-only request's first decode step carries its queue wait (there
// is no prefill to carry it), later steps none.
func TestSessionDecodeOnlyArrivalQueueWait(t *testing.T) {
	e := newEngineOpts(t, 403)
	s := e.NewSession()
	s.Submit(
		workload.Request{ID: 0, PromptTokens: 24, DecodeTokens: 2, Arrival: 0.001},
		workload.Request{ID: 1, DecodeTokens: 3, Arrival: 0.002},
	)
	decodes := 0
	s.Run(func(ev StepEvent) {
		if ev.Request != 1 {
			return
		}
		if ev.Phase != PhaseDecode {
			t.Fatalf("decode-only request mis-phased: %+v", ev)
		}
		if decodes == 0 && ev.Queued <= 0 {
			t.Fatalf("first decode of a queued prompt-less request has no wait: %+v", ev)
		}
		if decodes > 0 && ev.Queued != 0 {
			t.Fatalf("later decode carries queue wait: %+v", ev)
		}
		decodes++
	})
	if decodes != 3 {
		t.Fatalf("decode-only request ran %d steps, want 3", decodes)
	}
}

// TestSessionArrivalOrderIndependence pins the replay-friendly hold: an
// out-of-order trace (a later list entry arriving earlier) must not let
// the future request block the arrived one behind it.
func TestSessionArrivalOrderIndependence(t *testing.T) {
	e := newEngineOpts(t, 404)
	s := e.NewSession()
	s.Submit(
		workload.Request{ID: 0, PromptTokens: 16, DecodeTokens: 1, Arrival: 50},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 1, Arrival: 0.001},
	)
	ev, ok := s.Step()
	if !ok || ev.Request != 1 {
		t.Fatalf("first served request %d (ok=%v), want the earlier-arriving 1", ev.Request, ok)
	}
	var order []int
	order = append(order, ev.Request)
	s.Run(func(ev StepEvent) { order = append(order, ev.Request) })
	if last := order[len(order)-1]; last != 0 {
		t.Fatalf("late arrival never served: order %v", order)
	}
}

// TestSessionAdmissionSeesQueueWait is the queue-blind-TTFT fix end to
// end: the same burst of requests, served with the same SLO target, is
// fully admitted when arrivals are disabled (forward-only TTFT never
// breaches) but partially shed once arrival stamps make the queue wait
// visible to the live p95 the admission guard reads.
func TestSessionAdmissionSeesQueueWait(t *testing.T) {
	mkReqs := func(stampArrivals bool) []workload.Request {
		reqs := make([]workload.Request, 10)
		for i := range reqs {
			reqs[i] = workload.Request{ID: i, PromptTokens: 32, DecodeTokens: 2}
			if stampArrivals {
				// A near-simultaneous burst: all arrive within 10ms, far
				// faster than the server drains them.
				reqs[i].Arrival = 0.001 * float64(i+1)
			}
		}
		return reqs
	}
	// Calibrate the SLO from an open-door run: the forward-only TTFT of
	// this homogeneous burst is essentially constant, so a target just
	// above it can only breach through queueing.
	var maxForward float64
	{
		e := newEngineOpts(t, 405)
		s := e.NewSession()
		s.Submit(mkReqs(false)...)
		s.Run(func(ev StepEvent) {
			if ev.Phase == PhasePrefill && ev.Latency > maxForward {
				maxForward = ev.Latency
			}
		})
	}
	drive := func(stamp bool) int {
		e := newEngineOpts(t, 405,
			WithAdmission(&SLOAdmission{TTFTp95: maxForward * 1.05, MinSamples: 2, ShedFactor: 1.2}))
		s := e.NewSession()
		s.Submit(mkReqs(stamp)...)
		s.Run(nil)
		return s.Metrics().Shed
	}
	if shed := drive(false); shed != 0 {
		t.Fatalf("closed-loop run shed %d requests under a target above the forward latency", shed)
	}
	if shed := drive(true); shed == 0 {
		t.Fatal("bursty open-loop run shed nothing: admission is still queue-blind")
	}
}

// TestSessionDecodeOnlyFeedsAdmissionTTFT closes the decode-only gap
// in the queue-blind fix: a prompt-less request has no prefill to carry
// its arrival→first-token observation, so its first decode must feed
// the TTFT quantiles the admission guard reads — otherwise a replayed
// decode-only trace leaves TTFT.N at zero and admission never sheds,
// however far the queue backs up.
func TestSessionDecodeOnlyFeedsAdmissionTTFT(t *testing.T) {
	var maxSeen report.LatencyStats
	capture := decideFunc(func(_ workload.Request, snap SLOSnapshot) AdmissionDecision {
		if snap.TTFT.N > maxSeen.N {
			maxSeen = snap.TTFT
		}
		return AdmissionAdmit
	})
	e := newEngineOpts(t, 408, WithAdmission(capture))
	s := e.NewSession()
	reqs := make([]workload.Request, 6)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, DecodeTokens: 4, Arrival: 0.001 * float64(i+1)}
	}
	s.Submit(reqs...)
	s.Run(nil)
	if maxSeen.N == 0 {
		t.Fatal("decode-only burst never fed the admission TTFT quantiles")
	}
	// The later requests queue behind the earlier ones at concurrency 1,
	// so the observed p95 must reflect queue wait, not a lone decode
	// step's latency.
	if maxSeen.P95 < 0.01 {
		t.Fatalf("TTFT p95 %v looks like a bare decode step; queue wait missing", maxSeen.P95)
	}
}

// TestSessionPendingExcludesZeroWork pins the Submit contract: a
// zero-work submission (no prompt, no decode) is dropped at Submit and
// never inflates Pending while it waits for an admission pass.
func TestSessionPendingExcludesZeroWork(t *testing.T) {
	e := newEngineOpts(t, 406)
	s := e.NewSession()
	s.Submit(workload.Request{ID: 0},
		workload.Request{ID: 1, PromptTokens: 16, DecodeTokens: 1},
		workload.Request{ID: 2})
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after two zero-work submissions, want 1", got)
	}
	n := s.Run(nil)
	if n != 2 { // prefill + one decode
		t.Fatalf("drained %d events, want 2", n)
	}
}

// TestSessionBatchedRoundRobinRotation is the engine-level regression
// for the batch-compaction cursor skew: with greedy batching merging
// every in-flight decode, a co-member completing at an index below the
// round-robin lead used to shift the slice under the cursor and skip
// the next request in rotation. The lead of every merged iteration is
// its first emitted event, so the lead sequence pins the rotation.
func TestSessionBatchedRoundRobinRotation(t *testing.T) {
	e := newEngineOpts(t, 407, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(4))
	s.Submit(
		workload.Request{ID: 0, DecodeTokens: 2},
		workload.Request{ID: 1, DecodeTokens: 3},
		workload.Request{ID: 2, DecodeTokens: 1},
		workload.Request{ID: 3, DecodeTokens: 3},
	)
	var leads []int
	lastBatch := 0
	s.Run(func(ev StepEvent) {
		if ev.Batch != lastBatch {
			lastBatch = ev.Batch
			leads = append(leads, ev.Request)
		}
	})
	// Iteration 1 (lead 0) completes request 2 mid-batch; iteration 2
	// (lead 1) completes request 0 — an index below the lead. The fixed
	// cursor keeps the rotation on request 3; the old pick-only
	// accounting wrapped back to request 1 and starved 3.
	want := []int{0, 1, 3}
	if len(leads) != len(want) {
		t.Fatalf("lead sequence %v, want %v", leads, want)
	}
	for i := range want {
		if leads[i] != want[i] {
			t.Fatalf("lead sequence %v, want %v (cursor skew)", leads, want)
		}
	}
}
