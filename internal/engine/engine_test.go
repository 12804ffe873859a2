package engine

import (
	"strings"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
)

func newEngine(t *testing.T, cfg *moe.Config, fw Framework, ratio float64, seed uint64) *Engine {
	t.Helper()
	e, err := New(cfg, hw.A6000Platform(), fw,
		WithCacheRatio(ratio), WithSeed(seed), WithPlanValidation())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRejectsBadInputs(t *testing.T) {
	bad := &moe.Config{Name: "bad"}
	if _, err := New(bad, hw.A6000Platform(), HybriMoEFramework()); err == nil {
		t.Error("invalid config should error")
	}
	badPlat := hw.A6000Platform()
	badPlat.CPU.PeakFlops = 0
	if _, err := New(moe.DeepSeek(), badPlat, HybriMoEFramework()); err == nil {
		t.Error("invalid platform should error")
	}
	badFW := HybriMoEFramework()
	badFW.Prefetch = "psychic"
	if _, err := New(moe.DeepSeek(), hw.A6000Platform(), badFW); err == nil {
		t.Error("unknown prefetcher should error")
	}
	badFW2 := HybriMoEFramework()
	badFW2.CachePolicy = "FIFO"
	if _, err := New(moe.DeepSeek(), hw.A6000Platform(), badFW2); err == nil {
		t.Error("unknown cache policy should error")
	}
	badFW3 := HybriMoEFramework()
	badFW3.Sched = "psychic-sched"
	if _, err := New(moe.DeepSeek(), hw.A6000Platform(), badFW3); err == nil {
		t.Error("unknown scheduler should error")
	}
	badFW4 := HybriMoEFramework()
	badFW4.Sched = ""
	if _, err := New(moe.DeepSeek(), hw.A6000Platform(), badFW4); err == nil {
		t.Error("empty scheduler name should error")
	}
}

func TestDecodeProducesPositiveLatencies(t *testing.T) {
	for _, fw := range AllFrameworks() {
		e := newEngine(t, moe.DeepSeek(), fw, 0.5, 1)
		res := e.RunDecode(8)
		if len(res.StepLatencies) != 8 {
			t.Fatalf("%s: %d steps", fw.Name, len(res.StepLatencies))
		}
		for i, lat := range res.StepLatencies {
			if lat <= 0 {
				t.Fatalf("%s step %d latency %v", fw.Name, i, lat)
			}
		}
		if res.Mean() <= 0 || res.Total <= 0 {
			t.Fatalf("%s aggregates broken: %+v", fw.Name, res)
		}
		if res.Framework != fw.Name || res.Model != "DeepSeek" {
			t.Fatalf("result labels wrong: %+v", res)
		}
	}
}

func TestPrefillProducesPositiveLatency(t *testing.T) {
	for _, fw := range AllFrameworks() {
		e := newEngine(t, moe.DeepSeek(), fw, 0.5, 2)
		res := e.RunPrefill(64)
		if len(res.StepLatencies) != 1 || res.StepLatencies[0] <= 0 {
			t.Fatalf("%s: prefill result %+v", fw.Name, res)
		}
	}
}

func TestRunPanicsOnBadArgs(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.5, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero decode steps should panic")
			}
		}()
		e.RunDecode(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero prefill tokens should panic")
			}
		}()
		e.RunPrefill(0)
	}()
}

func TestHybriMoEBeatsKTransformersDecode(t *testing.T) {
	// The headline decode result (Fig. 8): HybriMoE ≥ kTransformers at
	// tight cache ratios. Averaged over seeds to avoid flake.
	var hybTotal, ktTotal float64
	for seed := uint64(0); seed < 3; seed++ {
		hyb := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 10+seed).RunDecode(30)
		kt := newEngine(t, moe.DeepSeek(), KTransformersFramework(), 0.25, 10+seed).RunDecode(30)
		hybTotal += hyb.Total
		ktTotal += kt.Total
	}
	speedup := ktTotal / hybTotal
	t.Logf("decode speedup over kTransformers: %.2fx", speedup)
	if speedup < 1.1 {
		t.Fatalf("HybriMoE decode speedup %.3f too small", speedup)
	}
}

func TestHybriMoEBeatsKTransformersPrefill(t *testing.T) {
	var hybTotal, ktTotal float64
	for seed := uint64(0); seed < 3; seed++ {
		hyb := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 20+seed).RunPrefill(128)
		kt := newEngine(t, moe.DeepSeek(), KTransformersFramework(), 0.25, 20+seed).RunPrefill(128)
		hybTotal += hyb.Total
		ktTotal += kt.Total
	}
	speedup := ktTotal / hybTotal
	t.Logf("prefill speedup over kTransformers: %.2fx", speedup)
	if speedup < 1.05 {
		t.Fatalf("HybriMoE prefill speedup %.3f too small", speedup)
	}
}

func TestLlamaCppWorstAtPrefill(t *testing.T) {
	// Figure 7: llama.cpp's whole-layer CPU mapping is the slowest
	// prefill by a wide margin.
	lc := newEngine(t, moe.DeepSeek(), LlamaCppFramework(), 0.5, 30).RunPrefill(128)
	hyb := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.5, 30).RunPrefill(128)
	if lc.Total <= hyb.Total {
		t.Fatalf("llama.cpp prefill (%v) should trail HybriMoE (%v)", lc.Total, hyb.Total)
	}
}

func TestMoreCacheIsFaster(t *testing.T) {
	// Latency must fall (or at least not rise) as the cache ratio grows.
	lat := map[float64]float64{}
	for _, ratio := range []float64{0.25, 0.75} {
		e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), ratio, 40)
		lat[ratio] = e.RunDecode(30).Total
	}
	if lat[0.75] >= lat[0.25] {
		t.Fatalf("75%% cache (%v) should beat 25%% cache (%v)", lat[0.75], lat[0.25])
	}
}

func TestCacheHitRateReported(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.5, 50)
	res := e.RunDecode(20)
	if res.Stats.CacheHitRate <= 0 || res.Stats.CacheHitRate > 1 {
		t.Fatalf("hit rate %v out of (0,1]", res.Stats.CacheHitRate)
	}
}

func TestStatsCounters(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 60)
	res := e.RunDecode(10)
	if res.Stats.CPUOps+res.Stats.GPUOps == 0 {
		t.Fatal("no compute ops recorded")
	}
	// 10 steps × 26 layers × 6 experts = 1560 expert computations.
	if got := res.Stats.CPUOps + res.Stats.GPUOps; got != 1560 {
		t.Fatalf("compute ops = %d, want 1560", got)
	}
	e2 := newEngine(t, moe.DeepSeek(), KTransformersFramework(), 0.25, 60)
	res2 := e2.RunDecode(10)
	if res2.Stats.DemandTransfers != 0 {
		t.Fatalf("static mapping made %d demand transfers", res2.Stats.DemandTransfers)
	}
	if res2.Stats.PrefetchTransfers != 0 {
		t.Fatalf("kTransformers made %d prefetch transfers", res2.Stats.PrefetchTransfers)
	}
}

func TestPrefetcherActuallyPrefetches(t *testing.T) {
	// On the static-mapping baseline the PCIe link is idle at decode, so
	// impact-driven prefetching has budget to act (the Table III
	// +Prefetching configuration). Under full HybriMoE the link may be
	// saturated by the scheduler's own demand transfers, which rightly
	// take priority.
	fw := KTransformersFramework()
	fw.Prefetch = "impact-driven"
	fw.PinWarm = false
	e := newEngine(t, moe.DeepSeek(), fw, 0.25, 70)
	res := e.RunDecode(20)
	if res.Stats.PrefetchTransfers == 0 {
		t.Fatal("impact-driven prefetcher never fired over 20 decode steps")
	}
	// And prefetching must help: same config without it is slower.
	plain := KTransformersFramework()
	plain.PinWarm = false
	base := newEngine(t, moe.DeepSeek(), plain, 0.25, 70).RunDecode(20)
	if res.Total >= base.Total {
		t.Fatalf("prefetching should reduce decode latency: %v vs %v", res.Total, base.Total)
	}
}

func TestRecordTraceGantt(t *testing.T) {
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(),
		WithCacheRatio(0.5), WithSeed(80), WithTraceRecording())
	if err != nil {
		t.Fatal(err)
	}
	e.RunDecode(2)
	g := e.Gantt(60)
	if !strings.Contains(g, "GPU") || !strings.Contains(g, "CPU") {
		t.Fatalf("recorded trace should render CPU and GPU rows:\n%s", g)
	}
	cpu, gpu, link := e.Timelines()
	if cpu == nil || gpu == nil || link == nil {
		t.Fatal("timelines missing with RecordTrace")
	}
	if gpu.BusyTime() <= 0 {
		t.Fatal("GPU timeline empty")
	}
	// Without RecordTrace, Gantt is empty.
	e2 := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.5, 81)
	e2.RunDecode(1)
	if e2.Gantt(60) != "" {
		t.Fatal("Gantt without RecordTrace should be empty")
	}
}

func TestStaticSplitResidency(t *testing.T) {
	e := newEngine(t, moe.DeepSeek(), LlamaCppFramework(), 0.5, 90)
	// 50% of 26 layers = 13 GPU layers.
	if !e.isCached(moe.ExpertID{Layer: 0, Index: 0}) {
		t.Fatal("layer 0 should be GPU-resident for llama.cpp at 50%")
	}
	if e.isCached(moe.ExpertID{Layer: 20, Index: 0}) {
		t.Fatal("layer 20 should be CPU-resident for llama.cpp at 50%")
	}
	if e.attentionDevice(20) != hw.CPU {
		t.Fatal("CPU layer attention should run on CPU for llama.cpp")
	}
	if e.attentionDevice(0) != hw.GPU {
		t.Fatal("GPU layer attention should run on GPU")
	}
}

func TestAblationFrameworksComplete(t *testing.T) {
	fws := AblationFrameworks()
	if len(fws) != 5 {
		t.Fatalf("ablation variants = %d, want 5", len(fws))
	}
	names := map[string]bool{}
	for _, fw := range fws {
		names[fw.Name] = true
		// Every variant must construct and run.
		e := newEngine(t, moe.Qwen2(), fw, 0.25, 100)
		res := e.RunDecode(3)
		if res.Total <= 0 {
			t.Fatalf("%s produced non-positive latency", fw.Name)
		}
	}
	for _, want := range []string{"Baseline", "Baseline+Scheduling", "Baseline+Prefetching", "Baseline+Caching", "All"} {
		if !names[want] {
			t.Fatalf("missing ablation variant %q", want)
		}
	}
}

func TestMixtralAndQwenRun(t *testing.T) {
	for _, cfg := range []*moe.Config{moe.Mixtral(), moe.Qwen2()} {
		e := newEngine(t, cfg, HybriMoEFramework(), 0.5, 110)
		res := e.RunDecode(3)
		if res.Total <= 0 {
			t.Fatalf("%s decode broken", cfg.Name)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 120).RunDecode(5)
	b := newEngine(t, moe.DeepSeek(), HybriMoEFramework(), 0.25, 120).RunDecode(5)
	for i := range a.StepLatencies {
		if a.StepLatencies[i] != b.StepLatencies[i] {
			t.Fatal("same seed must reproduce identical latencies")
		}
	}
}

// TestDecodeStepAllocations pins the decode step's allocation budget:
// once the schedulers' plans and the pooled scratch have grown, a
// DeepSeek HybriMoE decode step (a fresh one-request Session, as
// RunDecode builds it) stays within 50 allocations. Planning itself
// allocates nothing; the rest is the Session and its event.
func TestDecodeStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(),
		WithCacheRatio(0.25), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	e.RunDecode(1)
	if a := testing.AllocsPerRun(20, func() { e.RunDecode(1) }); a > 50 {
		t.Errorf("decode step allocated %.0f times, want at most 50", a)
	}
}
