package engine

import (
	"testing"

	"hybrimoe/internal/workload"
)

// admitAll is an admission policy that never intervenes, installed so a
// session keeps the Tally its admission snapshots read.
var admitAll = decideFunc(func(workload.Request, SLOSnapshot) AdmissionDecision { return AdmissionAdmit })

// TestTallyFirstTokenRule pins the three first-token edge cases on the
// Tally a session's admission reads, and checks that folding the
// emitted stream into a fresh Tally gives the same samples: a
// closed-queue prompt-less request has no first token, an
// arrival-stamped one has its first decode, and a request adopted
// through a handoff never does (its first token came from the exporting
// replica).
func TestTallyFirstTokenRule(t *testing.T) {
	ckpt := &workload.Checkpoint{PromptConsumed: 32, Context: 32}
	cases := []struct {
		name     string
		submit   func(s *Session)
		wantTTFT int
	}{
		{"closed-queue prompt-less", func(s *Session) {
			s.Submit(workload.Request{ID: 0, DecodeTokens: 3})
		}, 0},
		{"arrival-stamped prompt-less", func(s *Session) {
			s.Submit(workload.Request{ID: 0, DecodeTokens: 3, Arrival: 0.01})
		}, 1},
		{"adopted after a handoff", func(s *Session) {
			s.SubmitPrefilled(workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 3,
				Arrival: 0.01, Checkpoint: ckpt})
		}, 0},
		{"prefill", func(s *Session) {
			s.Submit(workload.Request{ID: 0, PromptTokens: 32, DecodeTokens: 3, Arrival: 0.01})
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newEngineOpts(t, 420, WithAdmission(admitAll)).NewSession()
			tc.submit(s)
			var fresh Tally
			var first StepEvent
			s.Run(func(ev StepEvent) {
				if fresh.ComputeEvents == 0 {
					first = ev
				}
				fresh.Add(ev)
			})
			got := s.tally.TTFT.Stats()
			if got.N != tc.wantTTFT {
				t.Fatalf("TTFT observations = %d, want %d", got.N, tc.wantTTFT)
			}
			if got != fresh.TTFT.Stats() || s.tally.TBT.Stats() != fresh.TBT.Stats() {
				t.Fatalf("session tally %+v / %+v disagrees with a fold of its stream %+v / %+v",
					got, s.tally.TBT.Stats(), fresh.TTFT.Stats(), fresh.TBT.Stats())
			}
			if tc.wantTTFT == 1 && got.Mean != first.Queued+first.Latency {
				t.Fatalf("TTFT %v, want the first token's Queued+Latency %v", got.Mean, first.Queued+first.Latency)
			}
			if fresh.TBT.Stats().N != 3 || fresh.Completed != 1 {
				t.Fatalf("folded %d decodes and %d completions, want 3 and 1",
					fresh.TBT.Stats().N, fresh.Completed)
			}
		})
	}
}

// TestTallyCountsAndGaps folds a hand-built stream and checks every
// counter and derived ratio.
func TestTallyCountsAndGaps(t *testing.T) {
	var tl Tally
	for _, ev := range []StepEvent{
		{Request: 1, Phase: PhasePrefill, Tokens: 8, Latency: 0.2, Queued: 0.1, End: 0.3, Arrival: 0.1, Class: "a", Deadline: 1},
		{Request: 2, Phase: PhaseDeferred, End: 0.3, Class: "b"},
		{Request: 1, Phase: PhaseDecode, Tokens: 1, Latency: 0.05, End: 0.4, Arrival: 0.1, Class: "a", Deadline: 1},
		{Request: 1, Phase: PhaseDecode, Index: 1, Tokens: 1, Latency: 0.05, End: 0.6, Arrival: 0.1, Class: "a", Deadline: 1, Done: true},
		{Request: 2, Phase: PhaseShed, End: 0.7, Class: "b", Done: true},
		{Request: 3, Phase: PhasePrefill, Tokens: 4, Latency: 0.5, End: 1.5, Class: "a", Deadline: 1, Done: true},
	} {
		tl.Add(ev)
	}
	if tl.Completed != 2 || tl.Shed != 1 || tl.Violated != 1 || tl.DecodeTokens != 2 || tl.ComputeEvents != 4 {
		t.Fatalf("counts %+v", tl)
	}
	if tl.Makespan != 1.5 {
		t.Fatalf("makespan %v, want 1.5", tl.Makespan)
	}
	if a, b := *tl.ByClass["a"], *tl.ByClass["b"]; a != (ClassTally{Completed: 2, Violated: 1}) || b != (ClassTally{Shed: 1}) {
		t.Fatalf("per-class %+v / %+v", a, b)
	}
	if tl.CompletedAt[1] != 0.6 || tl.CompletedAt[3] != 1.5 || len(tl.CompletedAt) != 2 {
		t.Fatalf("completion times %v", tl.CompletedAt)
	}
	if ttft := tl.TTFT.Stats(); ttft.N != 2 || ttft.P50 != 0.4 {
		t.Fatalf("TTFT %+v", ttft)
	}
	if q := tl.Queue.Stats(); q.N != 2 || q.Mean != 0.05 {
		t.Fatalf("queue wait %+v", q)
	}
	// Gaps: the first anchored at the prefill's End (0.3 → 0.4), then
	// decode to decode (0.4 → 0.6).
	if g := tl.Gap.Stats(); g.N != 2 || g.P50 < 0.149999 || g.P50 > 0.150001 {
		t.Fatalf("gaps %+v", g)
	}
	if len(tl.last) != 0 {
		t.Fatalf("completed requests left gap anchors behind: %v", tl.last)
	}
	if got := tl.Goodput(); got != 1/1.5 {
		t.Fatalf("goodput %v, want one on-time completion over 1.5s", got)
	}
	if got := tl.ShedFraction(4); got != 0.25 {
		t.Fatalf("shed fraction %v", got)
	}
	if got := tl.DecodeThroughput(); got != 2/1.5 {
		t.Fatalf("decode throughput %v", got)
	}

	var none *Tally
	none.Add(StepEvent{Phase: PhasePrefill, End: 1}) // a nil tally folds nothing
}
