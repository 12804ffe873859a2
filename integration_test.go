package hybrimoe_test

import (
	"math"
	"testing"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/sim"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// TestTimelineSpansNeverOverlap replays a recorded engine run and
// checks the physical invariant that each resource executes one thing
// at a time, across all frameworks and both stages.
func TestTimelineSpansNeverOverlap(t *testing.T) {
	for _, fw := range engine.AllFrameworks() {
		fw := fw
		t.Run(fw.Name, func(t *testing.T) {
			e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), fw,
				engine.WithCacheRatio(0.25), engine.WithSeed(101), engine.WithTraceRecording())
			if err != nil {
				t.Fatal(err)
			}
			serveAlone(e, workload.Request{PromptTokens: 32})
			serveAlone(e, workload.Request{DecodeTokens: 5})
			cpu, gpu, link := e.Timelines()
			for _, tl := range []*sim.Timeline{cpu, gpu, link} {
				assertSerial(t, tl)
			}
		})
	}
}

func assertSerial(t *testing.T, tl *sim.Timeline) {
	t.Helper()
	spans := tl.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End-1e-9 {
			t.Fatalf("%s: span %d (%q @%v) starts before span %d (%q ends %v)",
				tl.Name, i, spans[i].Name, spans[i].Start, i-1, spans[i-1].Name, spans[i-1].End)
		}
	}
}

// TestExpertComputationConservation checks that every activated expert
// is computed exactly once per step: ops == steps × layers × K for
// decode on every framework.
func TestExpertComputationConservation(t *testing.T) {
	cfg := moe.Qwen2()
	const steps = 6
	want := steps * cfg.Layers * cfg.ActivatedExperts
	for _, fw := range engine.AllFrameworks() {
		e, err := engine.New(cfg, hw.A6000Platform(), fw,
			engine.WithCacheRatio(0.5), engine.WithSeed(102), engine.WithPlanValidation())
		if err != nil {
			t.Fatal(err)
		}
		_, _, m := serveAlone(e, workload.Request{DecodeTokens: steps})
		if got := m.CPUOps + m.GPUOps; got != want {
			t.Fatalf("%s: %d expert computations, want %d", fw.Name, got, want)
		}
	}
}

// TestLatencyDominanceAcrossGrid spot-checks the paper's headline
// ordering across the full model × ratio grid: HybriMoE never loses to
// kTransformers at decode.
func TestLatencyDominanceAcrossGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	for _, cfg := range moe.AllModels() {
		for _, ratio := range []float64{0.25, 0.5, 0.75} {
			hy, err := engine.New(cfg, hw.A6000Platform(), engine.HybriMoEFramework(),
				engine.WithCacheRatio(ratio), engine.WithSeed(103))
			if err != nil {
				t.Fatal(err)
			}
			kt, err := engine.New(cfg, hw.A6000Platform(), engine.KTransformersFramework(),
				engine.WithCacheRatio(ratio), engine.WithSeed(103))
			if err != nil {
				t.Fatal(err)
			}
			h, _, _ := serveAlone(hy, workload.Request{DecodeTokens: 15})
			k, _, _ := serveAlone(kt, workload.Request{DecodeTokens: 15})
			if h > k {
				t.Errorf("%s @%.0f%%: HybriMoE %.4fs slower than kTransformers %.4fs",
					cfg.Name, ratio*100, h, k)
			}
		}
	}
}

// TestServingSessionThroughEngine drives the full stack — workload
// stream, engine, scheduler, cache — through one prompt-only and one
// decode-only session per request and checks metric sanity.
func TestServingSessionThroughEngine(t *testing.T) {
	e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(104))
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewStream(104, workload.AllDatasets()...)
	var m engine.Metrics
	for _, req := range stream.NextN(3) {
		decode := req.DecodeTokens
		if decode > 5 {
			decode = 5
		}
		ttft, _, _ := serveAlone(e, workload.Request{PromptTokens: req.PromptTokens})
		if ttft <= 0 || math.IsNaN(ttft) {
			t.Fatalf("bad TTFT %v for %+v", ttft, req)
		}
		var sum float64
		var n int
		sum, n, m = serveAlone(e, workload.Request{DecodeTokens: decode})
		tbt := sum / float64(n)
		if tbt <= 0 {
			t.Fatalf("bad TBT for %+v", req)
		}
		// A decode step is far cheaper than its request's prefill.
		if tbt >= ttft {
			t.Fatalf("TBT %v should be below TTFT %v", tbt, ttft)
		}
	}
	if hr := m.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("session hit rate %v out of (0,1)", hr)
	}
}

// TestTraceStatisticsFeedCacheWins ties the motivation (Fig 3b signal)
// to the mechanism (MRS): when the temporal signal is removed from the
// trace, MRS's advantage over LRU should shrink or vanish.
func TestTraceStatisticsFeedCacheWins(t *testing.T) {
	cfg := moe.DeepSeek()
	run := func(opts trace.Options) (mrs, lru float64) {
		measure := func(policyName string) float64 {
			pol, err := cache.NewPolicy(policyName, cfg.ActivatedExperts)
			if err != nil {
				t.Fatal(err)
			}
			return exp.CacheHitRate(cfg, pol, 0.3, 150, opts)
		}
		return measure("MRS"), measure("LRU")
	}

	strong := trace.DefaultOptions(105)
	// Remove both score signals (short-term persistence and long-run
	// preference structure): activations become nearly i.i.d.
	weak := strong
	weak.TemporalCorr = 0.01
	weak.BaseSpread = 0.001
	mrsS, lruS := run(strong)
	mrsW, lruW := run(weak)
	t.Logf("structured trace: MRS %.4f LRU %.4f; noise trace: MRS %.4f LRU %.4f",
		mrsS, lruS, mrsW, lruW)
	// MRS wins in both regimes. On the noise trace its edge comes from a
	// different mechanism: layers are visited cyclically, and LRU's
	// global recency eviction targets precisely the layer that will be
	// needed soonest, while MRS spreads evictions by (noise) score.
	if mrsS <= lruS {
		t.Fatal("MRS should beat LRU on the structured trace")
	}
	if mrsW <= lruW {
		t.Fatal("MRS should not lose to LRU even on a noise trace")
	}
	// The exploitable temporal signal makes the structured trace more
	// cacheable overall than i.i.d. activations at equal capacity.
	if mrsS <= mrsW {
		t.Fatalf("structured trace should be more cacheable: %.4f vs %.4f", mrsS, mrsW)
	}
}

// TestSessionServesWorkloadStream drives a mixed workload stream
// through the streaming Session API across every framework: prefill
// and decode interleave under concurrency 2, each request finishes
// with the right number of steps, and the event clock never runs
// backwards.
func TestSessionServesWorkloadStream(t *testing.T) {
	stream := workload.NewStream(106, workload.AllDatasets()...)
	reqs := stream.NextN(4)
	for i := range reqs {
		if reqs[i].DecodeTokens > 4 {
			reqs[i].DecodeTokens = 4
		}
	}
	for _, fw := range engine.AllFrameworks() {
		fw := fw
		t.Run(fw.Name, func(t *testing.T) {
			e, err := engine.New(moe.DeepSeek(), hw.A6000Platform(), fw,
				engine.WithCacheRatio(0.25), engine.WithSeed(106))
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession(engine.WithMaxConcurrent(2))
			s.Submit(reqs...)
			decodes := map[int]int{}
			ttft := map[int]float64{}
			var prevEnd float64
			s.Run(func(ev engine.StepEvent) {
				if ev.Latency <= 0 || math.IsNaN(ev.Latency) {
					t.Fatalf("bad latency in %+v", ev)
				}
				if ev.Start < prevEnd {
					t.Fatalf("clock ran backwards: %+v before %v", ev, prevEnd)
				}
				prevEnd = ev.End
				switch ev.Phase {
				case engine.PhasePrefill:
					ttft[ev.Request] = ev.Latency
				case engine.PhaseDecode:
					decodes[ev.Request]++
				}
			})
			for _, r := range reqs {
				if _, ok := ttft[r.ID]; !ok {
					t.Fatalf("request %d never prefilled", r.ID)
				}
				if decodes[r.ID] != r.DecodeTokens {
					t.Fatalf("request %d decoded %d/%d steps", r.ID, decodes[r.ID], r.DecodeTokens)
				}
			}
		})
	}
}
