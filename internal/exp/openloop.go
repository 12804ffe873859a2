package exp

import (
	"hybrimoe/internal/engine"
	"hybrimoe/internal/report"
)

// OpenLoopStudy serves the same mixed-corpus request sequence under
// open-loop Poisson arrivals at three rates — about half, twice and
// eight times the platform's measured capacity — across request
// schedulers and batch formers, with an SLO admission guard whose p95
// TTFT target is calibrated at twice the closed-loop forward p95. Only
// the arrival stamps vary with the rate (the stream draws arrivals from
// a dedicated RNG), so the rows isolate queueing from workload content.
// Reported per combination: completions, shed fraction of offered load,
// goodput (completions per simulated second), the queue-inclusive p95
// TTFT (arrival → first token), the forward-only p95 it replaces, and
// the p95 queue wait itself. As the rate climbs past capacity the queue
// wait — invisible to the pre-arrival, queue-blind TTFT — dominates the
// p95 and drives the guard from admit to shed. The closed-loop capacity
// calibration runs serially, then there is one cell per rate ×
// scheduler × batch-former point; each cell draws its own request
// stream (deterministic in the rate), so cells share no mutable state.
func OpenLoopStudy(p Params, requests int, ratio float64) *report.Table {
	// Closed-loop calibration: measured capacity anchors the rate grid
	// and the forward p95 anchors the SLO target, so the study stays
	// meaningful across Params scales. The target sits just above the
	// forward p95 with a low sample floor — a deliberately strained SLO
	// that only queueing can breach, so the shed fraction tracks the
	// arrival rate rather than the workload content.
	base := drivePolicy(p, ratio, studyRequests(p, requests, 0), "round-robin", "none", 3, nil)
	capacity := float64(base.Completed) / base.Makespan
	// Read the calibration here, serially: Live.Stats sorts in place, and
	// the cells run on concurrent workers.
	target := 1.25 * base.Prefill.Stats().P95
	adm := func() engine.AdmissionPolicy {
		return &engine.SLOAdmission{TTFTp95: target, MinSamples: 2, ShedFactor: 1.5}
	}

	var cells []Cell
	for _, mult := range []float64{0.5, 2, 8} {
		rate := mult * capacity
		for _, schedName := range []string{"round-robin", "sjf"} {
			for _, batchName := range []string{"none", "greedy"} {
				cells = append(cells, func() []Row {
					reqs := studyRequests(p, requests, rate)
					r := drivePolicy(p, ratio, reqs, schedName, batchName, 3, adm())
					return []Row{{rate, schedName, batchName, r.Completed, r.ShedFraction(len(reqs)),
						r.Goodput(), r.TTFT.Stats().P95, r.Prefill.Stats().P95, r.Queue.Stats().P95}}
				})
			}
		}
	}
	return tableFromCells("Open-loop study: Poisson arrival rate × scheduler × batch former (HybriMoE)",
		[]string{"rate(req/s)", "reqsched", "batch", "completed", "shed-fraction",
			"goodput(req/s)", "p95-TTFT(s)", "p95-prefill(s)", "p95-queue(s)"}, runCells(cells))
}
