package exp

import (
	"fmt"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// ServingStudy goes beyond the paper's per-stage measurements: it
// serves a mixed request stream sampled from the three evaluation
// corpora (MT-Bench, Vicuna-Bench, ChatGPT-Prompts) through the
// engine's streaming Session loop — prefill and decode interleaved,
// cache state carried across requests — and reports TTFT and TBT
// percentiles (p50/p95/p99) per framework, computed from the per-step
// event stream. The shape should match the paper's per-stage findings
// (HybriMoE best on both; the prefill gap driven by scheduling, the
// decode gap by caching and balancing). There is one cell per
// framework, all serving one shared request sequence.
func ServingStudy(p Params, requests int, ratio float64) *report.Table {
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()

	// One shared request sequence for every framework (read-only across
	// cells; Session.Submit copies by value).
	reqs := studyRequests(p, requests, 0)

	var cells []Cell
	for _, fw := range engine.AllFrameworks() {
		cells = append(cells, func() []Row {
			e, err := engine.New(cfg, platform, fw,
				engine.WithCacheRatio(ratio), engine.WithSeed(p.Seed))
			if err != nil {
				panic(err)
			}
			// Two requests in flight so prefill and decode genuinely
			// interleave, the way a continuously-batched server mixes
			// phases.
			ses := e.NewSession(engine.WithMaxConcurrent(2))
			ses.Submit(reqs...)
			var t engine.Tally
			ses.Run(t.Add)
			ttft, tbt := t.TTFT.Stats(), t.TBT.Stats()
			return []Row{{fw.Name, ttft.Mean, ttft.P50, ttft.P95, ttft.P99,
				tbt.P50, tbt.P95, tbt.P99, ses.Metrics().HitRate()}}
		})
	}
	return tableFromCells("Serving study: mixed corpus stream, end-to-end",
		[]string{"framework", "mean-TTFT(s)", "p50-TTFT(s)", "p95-TTFT(s)", "p99-TTFT(s)",
			"p50-TBT(s)", "p95-TBT(s)", "p99-TBT(s)", "hit-rate"}, runCells(cells))
}

// classViolationRate reports violated/completed for SLO class c.
func classViolationRate(t *engine.Tally, c string) float64 {
	ct := t.ByClass[c]
	if ct == nil || ct.Completed == 0 {
		return 0
	}
	return float64(ct.Violated) / float64(ct.Completed)
}

// policyRun aggregates one serving run under a request scheduler,
// batch former and admission policy.
type policyRun struct {
	engine.Tally
	iterations int // merged engine iterations
}

// meanBatch reports the mean number of requests advanced per engine
// iteration.
func (r *policyRun) meanBatch() float64 {
	if r.iterations == 0 {
		return 0
	}
	return float64(r.ComputeEvents) / float64(r.iterations)
}

// drivePolicy serves reqs through a fresh HybriMoE engine under the
// named request scheduler, batch former and optional admission policy,
// with at most concurrent requests in flight.
func drivePolicy(p Params, ratio float64, reqs []workload.Request,
	schedName, batchName string, concurrent int, adm engine.AdmissionPolicy) *policyRun {
	opts := []engine.Option{
		engine.WithCacheRatio(ratio),
		engine.WithSeed(p.Seed),
		engine.WithRequestScheduler(schedName),
		engine.WithBatchPolicy(batchName, BatchBudget),
	}
	if adm != nil {
		opts = append(opts, engine.WithAdmission(adm))
	}
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), opts...)
	if err != nil {
		panic(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(concurrent))
	s.Submit(reqs...)

	r := &policyRun{}
	s.Run(r.Add)
	r.iterations = s.Metrics().Batches
	return r
}

// ServingPolicyStudy compares request schedulers and admission policies
// side-by-side on one fixed mixed-corpus stream served by the HybriMoE
// framework. Every request carries a size-proportional completion
// deadline calibrated from a baseline round-robin run (so some
// deadlines are tight under contention), and the SLO admission targets
// are set just below the baseline's p95s (so admission genuinely
// binds). Requests are labelled with an SLO class — priority traffic is
// "interactive", the rest "batch" — and the per-class violation and
// shed rates ride alongside the aggregates, so the table shows whom
// each policy sacrifices, not just how much. Reported per combination:
// goodput (deadline-met completions per simulated second), SLO
// violation rate among completions, shed fraction of offered load,
// per-class violation and shed rates, and the p95 TTFT/TBT the served
// requests saw. The baseline calibration runs serially, then there is
// one cell per scheduler × admission point.
func ServingPolicyStudy(p Params, requests int, ratio float64) *report.Table {
	reqs := studyRequests(p, requests, 0)
	offered := map[string]int{}
	for i := range reqs {
		// Every third request is priority traffic the SLO guard may
		// defer but never shed; it forms the "interactive" SLO class,
		// everything else the "batch" class.
		if i%3 == 0 {
			reqs[i].Priority = 1
			reqs[i].Class = "interactive"
		} else {
			reqs[i].Class = "batch"
		}
		offered[reqs[i].Class]++
	}

	// Calibrate from the historical baseline (round-robin, open door):
	// each request's deadline is a multiple of its baseline completion
	// time — half tight (0.9×, missed unless a policy serves it
	// earlier), half slack (1.15×) — so scheduling order, not raw
	// speed, decides who meets it. The admission guard targets the
	// baseline's p50 TTFT as its p95 budget with a low shed factor, a
	// deliberately strained SLO that forces shed/defer verdicts.
	base := drivePolicy(p, ratio, reqs, "round-robin", "none", 3, nil)
	for i := range reqs {
		slack := 0.9
		if i%2 == 1 {
			slack = 1.15
		}
		reqs[i].Deadline = slack * base.CompletedAt[reqs[i].ID]
	}
	// Read the calibration here, serially: Live.Stats sorts in place, and
	// the cells run on concurrent workers.
	ttftTarget, tbtTarget := base.TTFT.Stats().P50, base.TBT.Stats().P95
	adm := func() engine.AdmissionPolicy {
		return &engine.SLOAdmission{
			TTFTp95:    ttftTarget,
			TBTp95:     tbtTarget,
			MinSamples: 4,
			ShedFactor: 1.2,
		}
	}

	var cells []Cell
	for _, schedName := range []string{"fcfs", "round-robin", "sjf", "edf"} {
		for _, withAdm := range []bool{false, true} {
			cells = append(cells, func() []Row {
				policy := engine.AdmissionPolicy(nil)
				admName := "none"
				if withAdm {
					policy = adm()
					admName = policy.Name()
				}
				r := drivePolicy(p, ratio, reqs, schedName, "none", 3, policy)
				violRate := 0.0
				if r.Completed > 0 {
					violRate = float64(r.Violated) / float64(r.Completed)
				}
				shedRate := func(c string) float64 {
					cs := r.ByClass[c]
					if cs == nil || offered[c] == 0 {
						return 0
					}
					return float64(cs.Shed) / float64(offered[c])
				}
				return []Row{{schedName, admName, r.Completed, r.Shed,
					r.Goodput(), violRate, r.ShedFraction(len(reqs)),
					fmt.Sprintf("%.2f/%.2f",
						classViolationRate(&r.Tally, "interactive"), classViolationRate(&r.Tally, "batch")),
					fmt.Sprintf("%.2f/%.2f", shedRate("interactive"), shedRate("batch")),
					r.TTFT.Stats().P95, r.TBT.Stats().P95}}
			})
		}
	}
	return tableFromCells("Serving policy study: request schedulers × admission (HybriMoE)",
		[]string{"reqsched", "admission", "completed", "shed",
			"goodput(req/s)", "violation-rate", "shed-fraction",
			"viol[inter/batch]", "shed[inter/batch]", "p95-TTFT(s)", "p95-TBT(s)"}, runCells(cells))
}
