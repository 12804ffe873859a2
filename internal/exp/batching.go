package exp

import "hybrimoe/internal/report"

// BatchBudget is the token budget per merged iteration the batching
// study (and its CLI/report consumers) packs to — wide enough that a
// full decode batch always merges and a typical prompt can ride along.
const BatchBudget = 256

// BatchingStudy compares the batch formers × concurrency limits on one
// fixed mixed-corpus stream served by the HybriMoE framework on the
// default model. Merging concurrent decode steps into one iteration
// amortises expert weights across in-flight tokens — the hybrid
// scheduling's expert loads finally overlap — so decode throughput
// should climb with concurrency under "greedy" and "phase-aware" while
// "none" (one request per iteration, the pre-batching loop) stays
// flat; the TBT percentiles show what each policy charges a single
// token for the extra sharing. There is one cell per batch former ×
// concurrency point, all serving one shared stream.
func BatchingStudy(p Params, requests int, ratio float64) *report.Table {
	reqs := studyRequests(p, requests, 0)

	var cells []Cell
	for _, policy := range []string{"none", "greedy", "phase-aware"} {
		for _, concurrent := range []int{1, 4, 8} {
			cells = append(cells, func() []Row {
				r := drivePolicy(p, ratio, reqs, "round-robin", policy, concurrent, nil)
				tbt := r.TBT.Stats()
				return []Row{{policy, concurrent, r.DecodeThroughput(),
					tbt.P50, tbt.P95, r.TTFT.Stats().P95, r.meanBatch(), r.Makespan}}
			})
		}
	}
	return tableFromCells("Batching study: batch formers × concurrency (HybriMoE)",
		[]string{"batch", "concurrent", "decode-tok/s", "p50-TBT(s)", "p95-TBT(s)",
			"p95-TTFT(s)", "mean-batch", "sim-time(s)"}, runCells(cells))
}
