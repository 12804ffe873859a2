package exp

import (
	"strings"
	"testing"
)

func TestBatchingStudyShape(t *testing.T) {
	p := QuickParams()
	p.DecodeSteps = 4
	tbl := BatchingStudy(p, 4, 0.25)
	out := render(t, tbl)
	// 3 policies × 3 concurrency limits.
	if tbl.NumRows() != 9 {
		t.Fatalf("rows = %d, want 9:\n%s", tbl.NumRows(), out)
	}
	for _, name := range []string{"none", "greedy", "phase-aware"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing batch policy %s:\n%s", name, out)
		}
	}
	for _, col := range []string{"decode-tok/s", "p50-TBT(s)", "p95-TBT(s)", "p95-TTFT(s)", "mean-batch", "sim-time(s)"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %s:\n%s", col, out)
		}
	}
}

// TestBatchingBeatsNoneAtConcurrency8 pins the study's headline: with
// eight requests in flight, merging their decode steps into one
// iteration ("greedy" and "phase-aware") must raise decode throughput
// over the unbatched loop ("none") — the amortisation continuous
// batching exists for.
func TestBatchingBeatsNoneAtConcurrency8(t *testing.T) {
	p := QuickParams()
	p.DecodeSteps = 12
	reqs := studyRequests(p, 12, 0)
	none := drivePolicy(p, 0.25, reqs, "round-robin", "none", 8, nil)
	for _, policy := range []string{"greedy", "phase-aware"} {
		batched := drivePolicy(p, 0.25, reqs, "round-robin", policy, 8, nil)
		if batched.DecodeThroughput() <= none.DecodeThroughput() {
			t.Errorf("%s decode throughput %.2f tok/s does not beat none's %.2f",
				policy, batched.DecodeThroughput(), none.DecodeThroughput())
		}
		if batched.meanBatch() <= 1 {
			t.Errorf("%s never merged: mean batch %.2f", policy, batched.meanBatch())
		}
	}
	if none.meanBatch() != 1 {
		t.Errorf("none must keep solo iterations, got mean batch %.2f", none.meanBatch())
	}
}

// TestBatchingConservesWork pins, at the study level, that batching
// reshapes iterations without changing the served workload: every
// policy decodes the same number of tokens.
func TestBatchingConservesWork(t *testing.T) {
	p := QuickParams()
	p.DecodeSteps = 6
	reqs := studyRequests(p, 8, 0)
	none := drivePolicy(p, 0.25, reqs, "round-robin", "none", 4, nil)
	for _, policy := range []string{"greedy", "phase-aware"} {
		r := drivePolicy(p, 0.25, reqs, "round-robin", policy, 4, nil)
		if r.DecodeTokens != none.DecodeTokens {
			t.Errorf("%s decoded %d tokens, none %d", policy, r.DecodeTokens, none.DecodeTokens)
		}
		if r.ComputeEvents != none.ComputeEvents {
			t.Errorf("%s ran %d request-steps, none %d", policy, r.ComputeEvents, none.ComputeEvents)
		}
	}
}
