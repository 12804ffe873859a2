package exp

import (
	"fmt"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// BatchBudget is the token budget per merged iteration the batching
// study (and its CLI/report consumers) packs to — wide enough that a
// full decode batch always merges and a typical prompt can ride along.
const BatchBudget = 256

// batchRun aggregates one batch-policy × concurrency serving run.
type batchRun struct {
	engine.Tally
	iterations int // merged engine iterations
}

// meanBatch reports the mean number of requests advanced per engine
// iteration.
func (r *batchRun) meanBatch() float64 {
	if r.iterations == 0 {
		return 0
	}
	return float64(r.ComputeEvents) / float64(r.iterations)
}

// driveBatch serves reqs through a fresh HybriMoE engine under the
// named batch former and concurrency limit.
func driveBatch(p Params, ratio float64, reqs []workload.Request,
	policy string, budget, concurrent int) batchRun {
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(ratio),
		engine.WithSeed(p.Seed),
		engine.WithBatchPolicy(policy, budget))
	if err != nil {
		panic(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(concurrent))
	s.Submit(reqs...)

	var r batchRun
	s.Run(r.Add)
	r.iterations = s.Batches()
	return r
}

// BatchingStudy compares the batch formers × concurrency limits on one
// fixed mixed-corpus stream served by the HybriMoE framework on the
// default model. Merging concurrent decode steps into one iteration
// amortises expert weights across in-flight tokens — the hybrid
// scheduling's expert loads finally overlap — so decode throughput
// should climb with concurrency under "greedy" and "phase-aware" while
// "none" (one request per iteration, the pre-batching loop) stays
// flat; the TBT percentiles show what each policy charges a single
// token for the extra sharing.
func BatchingStudy(p Params, requests int, ratio float64) *report.Table {
	return runTable(batchingStudy{requests: requests, ratio: ratio}, p)
}

// batchingStudy is BatchingStudy as a runner-iterated grid: one cell
// per batch former × concurrency point, all serving one shared stream.
type batchingStudy struct {
	requests int
	ratio    float64
}

func (batchingStudy) ID() string       { return "batching" }
func (batchingStudy) Describe() string { return "Continuous-batching policies × concurrency" }

func (s batchingStudy) Cells(p Params) []Cell {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(s.requests)
	workload.CapDecode(reqs, p.DecodeSteps)

	var cells []Cell
	for _, policy := range []string{"none", "greedy", "phase-aware"} {
		for _, concurrent := range []int{1, 4, 8} {
			cells = append(cells, Cell{
				Label: fmt.Sprintf("batching/%s/x%d", policy, concurrent),
				Run: func() []Row {
					r := driveBatch(p, s.ratio, reqs, policy, BatchBudget, concurrent)
					tbt := r.TBT.Stats()
					return []Row{{policy, concurrent, r.DecodeThroughput(),
						tbt.P50, tbt.P95, r.TTFT.Stats().P95, r.meanBatch(), r.Makespan}}
				},
			})
		}
	}
	return cells
}

func (batchingStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("Batching study: batch formers × concurrency (HybriMoE)",
		[]string{"batch", "concurrent", "decode-tok/s", "p50-TBT(s)", "p95-TBT(s)",
			"p95-TTFT(s)", "mean-batch", "sim-time(s)"}, results)
}
