package engine

import (
	"testing"

	"hybrimoe/internal/workload"
)

// TestSessionMetricsConserve checks a drained session's Metrics against
// the events its Step returned: Steps counts them, Shed counts the
// PhaseShed records, Batches is the largest Batch ordinal, and Hits and
// Misses are the events' sums, because each iteration's token-share
// split telescopes to the iteration's totals. Deferred counts verdicts,
// so it is at least the PhaseDeferred records. Before the first Step
// every counter reads zero. The golden scenarios run without admission;
// the SLO-guarded burst makes the admission checks bind.
func TestSessionMetricsConserve(t *testing.T) {
	scenarios := append(goldenScenarios(), goldenScenario{
		name: "slo-guarded",
		session: func(t *testing.T) *Session {
			e := newEngineOpts(t, 530, WithBatchPolicy("greedy", 64),
				WithAdmission(&SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 1.2}))
			s := e.NewSession(WithMaxConcurrent(3))
			reqs := workload.NewStream(530, workload.AllDatasets()...).
				WithArrivals(workload.Poisson(16)).NextN(16)
			workload.CapDecode(reqs, 4)
			for i := 0; i < len(reqs); i += 3 {
				reqs[i].Priority = 1 // deferred, never shed
			}
			s.Submit(reqs...)
			return s
		},
	})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.session(t)
			// Cache warm-up looks nothing up, so a fresh session reads zero.
			if m := s.Metrics(); m != (Metrics{}) || m.HitRate() != 0 {
				t.Fatalf("fresh session: metrics %+v, hit rate %v; want zero", m, m.HitRate())
			}
			var want Metrics
			deferrals := 0
			for ev, ok := s.Step(); ok; ev, ok = s.Step() {
				want.Steps++
				want.Batches = max(want.Batches, ev.Batch)
				want.Hits += ev.Hits
				want.Misses += ev.Misses
				switch ev.Phase {
				case PhaseShed:
					want.Shed++
				case PhaseDeferred:
					deferrals++
				}
			}
			got := s.Metrics()
			if got.Steps != want.Steps {
				t.Errorf("Steps = %d, %d events returned", got.Steps, want.Steps)
			}
			if got.Shed != want.Shed {
				t.Errorf("Shed = %d, %d PhaseShed records", got.Shed, want.Shed)
			}
			if got.Deferred < deferrals {
				t.Errorf("Deferred = %d, below the %d PhaseDeferred records", got.Deferred, deferrals)
			}
			if got.Batches != want.Batches {
				t.Errorf("Batches = %d, largest StepEvent.Batch %d", got.Batches, want.Batches)
			}
			if got.Hits != want.Hits || got.Misses != want.Misses {
				t.Errorf("Hits/Misses = %d/%d, events sum to %d/%d", got.Hits, got.Misses, want.Hits, want.Misses)
			}
			if sc.name == "slo-guarded" && (want.Shed == 0 || deferrals == 0) {
				t.Fatalf("guarded burst shed %d and deferred %d requests; it must do both", want.Shed, deferrals)
			}
		})
	}
}
