// Serving example: an end-to-end session study beyond the paper's
// per-stage metrics. A mixed request stream sampled from MT-Bench-,
// Vicuna-Bench- and ChatGPT-Prompts-like length distributions is served
// through the engine's streaming Session loop — prefill and decode
// interleaved across concurrent requests, the expert cache carrying
// state throughout — the deployment scenario the paper's edge-offloading
// setting targets. TTFT and TBT percentiles are folded from the
// per-step event stream by engine.Tally.
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/workload"
)

func main() {
	// Show what the workload generator produces.
	stream := workload.NewStream(42, workload.AllDatasets()...)
	fmt.Println("sample of the request stream:")
	reqs := stream.NextN(8)
	for _, r := range reqs {
		fmt.Printf("  req %2d  %-16s prompt %4d tokens (bucket %4d), decode %3d tokens\n",
			r.ID, r.Dataset, r.PromptTokens, workload.Bucket(r.PromptTokens), r.DecodeTokens)
	}

	// Length distribution per corpus.
	rng := stats.NewRNG(43)
	fmt.Println("\nprompt-length buckets over 1000 samples per corpus:")
	for _, d := range workload.AllDatasets() {
		counts := d.SampleBucketed(rng, 1000)
		fmt.Printf("  %-16s", d.Name)
		for _, b := range workload.PaperBuckets {
			fmt.Printf("  %4d:%-4d", b, counts[b])
		}
		fmt.Println()
	}

	// Stream the sampled requests through a Session: two requests in
	// flight, prefill and decode interleaving, per-step events out.
	for i := range reqs {
		if reqs[i].DecodeTokens > 12 {
			reqs[i].DecodeTokens = 12 // keep the demo quick
		}
	}
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(2))
	s.Submit(reqs...)

	fmt.Println("\nstreaming session (HybriMoE, 25% cache, 2 concurrent requests):")
	var t engine.Tally
	s.Run(func(ev engine.StepEvent) {
		t.Add(ev)
		switch ev.Phase {
		case engine.PhasePrefill:
			fmt.Printf("  t=%7.3fs  req %2d  prefill %4d tok  TTFT %.4fs  (%d hits / %d misses)\n",
				ev.End, ev.Request, ev.Tokens, ev.Latency, ev.Hits, ev.Misses)
		case engine.PhaseDecode:
			if ev.Done {
				fmt.Printf("  t=%7.3fs  req %2d  done after %d decode steps\n",
					ev.End, ev.Request, ev.Index+1)
			}
		}
	})
	m := s.Metrics()
	fmt.Printf("\n%d steps, cache hit rate %.1f%%\n", m.Steps, 100*m.HitRate())
	fmt.Printf("TTFT  %s\n", t.TTFT.Stats())
	fmt.Printf("TBT   %s\n", t.TBT.Stats())

	// The same stream under deadline-aware scheduling and SLO admission
	// control: requests carry per-token completion deadlines, EDF picks
	// the most urgent in-flight request each iteration, and the
	// admission guard sheds best-effort arrivals once the live p95s
	// breach their targets (priority requests are only ever deferred).
	for i := range reqs {
		reqs[i].Deadline = 0.025 * float64(reqs[i].PromptTokens+reqs[i].DecodeTokens)
		if i%3 == 0 {
			reqs[i].Priority = 1
		}
	}
	e2, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(42),
		engine.WithRequestScheduler("edf"),
		engine.WithAdmission(engine.NewSLOAdmission(0.12, 0.02)))
	if err != nil {
		log.Fatal(err)
	}
	s2 := e2.NewSession(engine.WithMaxConcurrent(2))
	s2.Submit(reqs...)

	fmt.Println("\nEDF + SLO admission (p95 targets: TTFT 0.12s, TBT 0.02s):")
	var t2 engine.Tally
	s2.Run(func(ev engine.StepEvent) {
		t2.Add(ev)
		switch ev.Phase {
		case engine.PhaseShed:
			fmt.Printf("  t=%7.3fs  req %2d  shed by admission control\n", ev.End, ev.Request)
		case engine.PhaseDeferred:
			fmt.Printf("  t=%7.3fs  req %2d  deferred by admission control\n", ev.End, ev.Request)
		case engine.PhaseDecode:
			if ev.Done {
				verdict := "met"
				if ev.Deadline > 0 && ev.End > ev.Deadline {
					verdict = "MISSED"
				}
				fmt.Printf("  t=%7.3fs  req %2d  done, deadline %.3fs %s\n",
					ev.End, ev.Request, ev.Deadline, verdict)
			}
		}
	})
	m2 := s2.Metrics()
	fmt.Printf("shed %d, deferral verdicts %d, deadline violations %d\n",
		m2.Shed, m2.Deferred, t2.Violated)

	// The same stream under continuous batching: the phase-aware batch
	// former merges the in-flight requests' decode steps into single
	// engine iterations (prefills batch separately, so TBT never pays a
	// prefill-length stall), and every event reports which merged
	// iteration it rode in via Batch/BatchSize.
	e3, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(42),
		engine.WithBatchPolicy("phase-aware", 256))
	if err != nil {
		log.Fatal(err)
	}
	s3 := e3.NewSession(engine.WithMaxConcurrent(4))
	s3.Submit(reqs...)

	fmt.Println("\nphase-aware continuous batching (4 concurrent, 256-token budget):")
	var t3 engine.Tally
	s3.Run(func(ev engine.StepEvent) {
		t3.Add(ev)
		if ev.Done && ev.BatchSize > 1 {
			fmt.Printf("  t=%7.3fs  req %2d  done in a %d-wide batch (iteration %d)\n",
				ev.End, ev.Request, ev.BatchSize, ev.Batch)
		}
	})
	m3 := s3.Metrics()
	fmt.Printf("%d decode tokens over %d merged iterations (mean batch %.2f)\n",
		t3.DecodeTokens, m3.Batches, float64(m3.Steps)/float64(m3.Batches))
	fmt.Printf("TBT   %s\n", t3.TBT.Stats())

	// The same workload as an open-loop server: a bursty arrival process
	// stamps each request with an arrival time, the Session holds it
	// until the clock gets there (jumping across idle gaps), and TTFT
	// becomes arrival → first token — queue wait included — so the
	// admission guard finally sees queueing pressure build instead of
	// just the forward's cost. The request sequence also round-trips
	// through the JSONL trace format the CLI records and replays.
	open := workload.NewStream(42, workload.AllDatasets()...).
		WithArrivals(workload.Bursty(16, 0, 0.5, 0.5)). // 16 req/s half the time, silent otherwise
		NextN(8)
	workload.CapDecode(open, 12)
	var traced bytes.Buffer
	if err := workload.WriteTrace(&traced, open); err != nil {
		log.Fatal(err)
	}
	replayed, err := workload.ReadTrace(&traced)
	if err != nil {
		log.Fatal(err)
	}
	e4, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(42),
		engine.WithAdmission(engine.NewSLOAdmission(0.3, 0)))
	if err != nil {
		log.Fatal(err)
	}
	s4 := e4.NewSession(engine.WithMaxConcurrent(2))
	s4.Submit(replayed...)

	fmt.Println("\nopen-loop bursty arrivals (replayed from a JSONL trace, SLO p95 TTFT 0.3s):")
	var t4 engine.Tally
	s4.Run(func(ev engine.StepEvent) {
		t4.Add(ev)
		switch ev.Phase {
		case engine.PhasePrefill:
			fmt.Printf("  t=%7.3fs  req %2d  arrived %6.3fs, queued %.4fs  TTFT %.4fs\n",
				ev.End, ev.Request, ev.Arrival, ev.Queued, ev.Queued+ev.Latency)
		case engine.PhaseShed:
			fmt.Printf("  t=%7.3fs  req %2d  shed (live p95 TTFT over budget)\n", ev.End, ev.Request)
		}
	})
	fmt.Printf("shed %d of %d\n", s4.Metrics().Shed, len(replayed))
	fmt.Printf("TTFT (arrival→first token)  %s\n", t4.TTFT.Stats())

	// End-to-end serving comparison across frameworks, with percentiles.
	fmt.Println()
	p := exp.DefaultParams()
	p.DecodeSteps = 16 // decode burst cap per request
	exp.ServingStudy(p, 12, 0.25).Render(os.Stdout)

	// Request schedulers × admission policies on one fixed stream:
	// goodput, SLO violation rate and shed fraction side-by-side.
	fmt.Println()
	exp.ServingPolicyStudy(p, 12, 0.25).Render(os.Stdout)

	// Batch formers × concurrency: decode throughput vs the TBT each
	// policy charges for the sharing.
	fmt.Println()
	exp.BatchingStudy(p, 12, 0.25).Render(os.Stdout)

	// Open-loop arrivals: Poisson rate × scheduler × batch former, with
	// queue-inclusive p95 TTFT against the forward-only p95 it replaces
	// and the shed fraction the SLO guard takes as the rate climbs.
	fmt.Println()
	exp.OpenLoopStudy(p, 10, 0.25).Render(os.Stdout)
}
