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
// decode gap by caching and balancing).
func ServingStudy(p Params, requests int, ratio float64) *report.Table {
	return runTable(servingStudy{requests: requests, ratio: ratio}, p)
}

// servingStudy is ServingStudy as a runner-iterated grid: one cell per
// framework, all serving one shared request sequence.
type servingStudy struct {
	requests int
	ratio    float64
}

func (servingStudy) ID() string       { return "serving" }
func (servingStudy) Describe() string { return "End-to-end mixed-corpus serving study" }

func (s servingStudy) Cells(p Params) []Cell {
	platform := hw.A6000Platform()
	cfg := moe.DeepSeek()

	// One shared request sequence for every framework (read-only across
	// cells; Session.Submit copies by value).
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(s.requests)
	workload.CapDecode(reqs, p.DecodeSteps)

	var cells []Cell
	for _, fw := range engine.AllFrameworks() {
		cells = append(cells, Cell{Label: "serving/" + fw.Name, Run: func() []Row {
			e, err := engine.New(cfg, platform, fw,
				engine.WithCacheRatio(s.ratio), engine.WithSeed(p.Seed))
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
				tbt.P50, tbt.P95, tbt.P99, e.Caches().HitRate()}}
		}})
	}
	return cells
}

func (servingStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("Serving study: mixed corpus stream, end-to-end",
		[]string{"framework", "mean-TTFT(s)", "p50-TTFT(s)", "p95-TTFT(s)", "p99-TTFT(s)",
			"p50-TBT(s)", "p95-TBT(s)", "p99-TBT(s)", "hit-rate"}, results)
}

// classViolationRate reports violated/completed for SLO class c.
func classViolationRate(t *engine.Tally, c string) float64 {
	ct := t.ByClass[c]
	if ct == nil || ct.Completed == 0 {
		return 0
	}
	return float64(ct.Violated) / float64(ct.Completed)
}

// drivePolicy serves reqs through a fresh HybriMoE engine under the
// named request scheduler and optional admission policy.
func drivePolicy(p Params, ratio float64, reqs []workload.Request,
	schedName string, adm engine.AdmissionPolicy) *engine.Tally {
	opts := []engine.Option{
		engine.WithCacheRatio(ratio),
		engine.WithSeed(p.Seed),
		engine.WithRequestScheduler(schedName),
	}
	if adm != nil {
		opts = append(opts, engine.WithAdmission(adm))
	}
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), opts...)
	if err != nil {
		panic(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(3))
	s.Submit(reqs...)

	var t engine.Tally
	s.Run(t.Add)
	return &t
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
// requests saw.
func ServingPolicyStudy(p Params, requests int, ratio float64) *report.Table {
	return runTable(servingPolicyStudy{requests: requests, ratio: ratio}, p)
}

// servingPolicyStudy is ServingPolicyStudy as a runner-iterated grid:
// the baseline calibration (deadline stamping, admission targets) runs
// serially in Cells, then one cell per scheduler × admission point.
type servingPolicyStudy struct {
	requests int
	ratio    float64
}

func (servingPolicyStudy) ID() string { return "serving-policy" }
func (servingPolicyStudy) Describe() string {
	return "Request schedulers × SLO admission comparison"
}

func (s servingPolicyStudy) Cells(p Params) []Cell {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(s.requests)
	workload.CapDecode(reqs, p.DecodeSteps)
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
	base := drivePolicy(p, s.ratio, reqs, "round-robin", nil)
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
			cells = append(cells, Cell{Label: "serving-policy/" + schedName, Run: func() []Row {
				policy := engine.AdmissionPolicy(nil)
				admName := "none"
				if withAdm {
					policy = adm()
					admName = policy.Name()
				}
				r := drivePolicy(p, s.ratio, reqs, schedName, policy)
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
						classViolationRate(r, "interactive"), classViolationRate(r, "batch")),
					fmt.Sprintf("%.2f/%.2f", shedRate("interactive"), shedRate("batch")),
					r.TTFT.Stats().P95, r.TBT.Stats().P95}}
			}})
		}
	}
	return cells
}

func (servingPolicyStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("Serving policy study: request schedulers × admission (HybriMoE)",
		[]string{"reqsched", "admission", "completed", "shed",
			"goodput(req/s)", "violation-rate", "shed-fraction",
			"viol[inter/batch]", "shed[inter/batch]", "p95-TTFT(s)", "p95-TBT(s)"}, results)
}
