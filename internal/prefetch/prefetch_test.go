package prefetch

import (
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/sched"
)

// miniConfig: 4 layers, 8 experts, top-2, unit-ish sizes. With the unit
// platform, ExpertBytes is huge, so tests use a custom tiny config whose
// transfer time is manageable: Hidden=Intermediate=16 → bytes ≈ 416,
// transfer ≈ 1248 units... too big. Instead use the A6000 platform with
// DeepSeek sizing where transfers are ~1ms.
func testCtx(layer int, budget float64, loads map[int][]int, cached map[moe.ExpertID]bool) Context {
	cfg := moe.DeepSeek()
	return Context{
		Cfg:      cfg,
		Platform: hw.A6000Platform(),
		Layer:    layer,
		Budget:   budget,
		PredictedLoads: func(l int) []int {
			if v, ok := loads[l]; ok {
				return v
			}
			return make([]int, cfg.RoutedExperts)
		},
		IsCached:  func(id moe.ExpertID) bool { return cached[id] },
		Scheduler: sched.NewHybriMoE(),
	}
}

func loadsWith(cfg *moe.Config, pairs map[int]int) []int {
	loads := make([]int, cfg.RoutedExperts)
	for e, l := range pairs {
		loads[e] = l
	}
	return loads
}

func TestNoneNeverPrefetches(t *testing.T) {
	ctx := testCtx(0, 1.0, nil, nil)
	if got := NewNone().Select(ctx); got != nil {
		t.Fatalf("none prefetched %v", got)
	}
}

func TestNextLayerTopKBasic(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{1: loadsWith(cfg, map[int]int{3: 10, 5: 2, 7: 5})}
	cached := map[moe.ExpertID]bool{{Layer: 1, Index: 3}: true}
	ctx := testCtx(0, 10.0, loads, cached)
	got := NewNextLayerTopK().Select(ctx)
	// Expert 3 is cached → skip. 7 (load 5) before 5 (load 2).
	if len(got) != 2 || got[0] != (moe.ExpertID{Layer: 1, Index: 7}) || got[1] != (moe.ExpertID{Layer: 1, Index: 5}) {
		t.Fatalf("selection = %v", got)
	}
}

func TestNextLayerTopKRespectsBudget(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{1: loadsWith(cfg, map[int]int{1: 4, 2: 3, 3: 2, 4: 1})}
	xfer := hw.A6000Platform().Links[0].TransferTime(cfg.ExpertBytes())
	ctx := testCtx(0, 2.5*xfer, loads, nil)
	got := NewNextLayerTopK().Select(ctx)
	if len(got) != 2 {
		t.Fatalf("budget for 2 transfers selected %d: %v", len(got), got)
	}
}

func TestNextLayerTopKAtLastLayer(t *testing.T) {
	cfg := moe.DeepSeek()
	ctx := testCtx(cfg.Layers-1, 10, nil, nil)
	if got := NewNextLayerTopK().Select(ctx); got != nil {
		t.Fatalf("last layer has no next layer, got %v", got)
	}
}

func TestImpactDrivenPrefersHighImpactExpert(t *testing.T) {
	cfg := moe.DeepSeek()
	// Layer 1: expert 0 carries a massive load (dominates the layer's
	// makespan when uncached); expert 1 is light. Prefetching 0 yields
	// a much larger gain.
	loads := map[int][]int{
		1: loadsWith(cfg, map[int]int{0: 400, 1: 1}),
	}
	xfer := hw.A6000Platform().Links[0].TransferTime(cfg.ExpertBytes())
	ctx := testCtx(0, 1.5*xfer, loads, nil)
	got := NewImpactDriven().Select(ctx)
	if len(got) != 1 {
		t.Fatalf("budget for one transfer selected %d: %v", len(got), got)
	}
	if got[0] != (moe.ExpertID{Layer: 1, Index: 0}) {
		t.Fatalf("should prefetch the high-impact expert, got %v", got[0])
	}
}

func TestImpactDrivenSkipsCachedAndZeroGain(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{1: loadsWith(cfg, map[int]int{0: 10})}
	cached := map[moe.ExpertID]bool{{Layer: 1, Index: 0}: true}
	ctx := testCtx(0, 100, loads, cached)
	if got := NewImpactDriven().Select(ctx); len(got) != 0 {
		t.Fatalf("cached expert prefetched: %v", got)
	}
}

func TestImpactDrivenZeroBudget(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{1: loadsWith(cfg, map[int]int{0: 10})}
	ctx := testCtx(0, 0, loads, nil)
	if got := NewImpactDriven().Select(ctx); len(got) != 0 {
		t.Fatalf("zero budget prefetched: %v", got)
	}
}

func TestImpactDrivenLooksAcrossWindow(t *testing.T) {
	cfg := moe.DeepSeek()
	// Only layer 3 (lookahead 3) has predicted work.
	loads := map[int][]int{3: loadsWith(cfg, map[int]int{9: 200})}
	xfer := hw.A6000Platform().Links[0].TransferTime(cfg.ExpertBytes())
	ctx := testCtx(0, 2*xfer, loads, nil)
	got := NewImpactDriven().Select(ctx)
	if len(got) != 1 || got[0].Layer != 3 {
		t.Fatalf("window-3 candidate missed: %v", got)
	}
	// Layer 4 (lookahead 4) must be out of the window.
	loads4 := map[int][]int{4: loadsWith(cfg, map[int]int{9: 200})}
	ctx4 := testCtx(0, 2*xfer, loads4, nil)
	if got := NewImpactDriven().Select(ctx4); len(got) != 0 {
		t.Fatalf("lookahead-4 candidate selected despite window 3: %v", got)
	}
}

func TestImpactDrivenDiscountsDistantLayers(t *testing.T) {
	cfg := moe.DeepSeek()
	// Identical workloads at lookahead 1 and 3: the near one must win
	// the single transfer slot.
	loads := map[int][]int{
		1: loadsWith(cfg, map[int]int{0: 100}),
		3: loadsWith(cfg, map[int]int{0: 100}),
	}
	xfer := hw.A6000Platform().Links[0].TransferTime(cfg.ExpertBytes())
	ctx := testCtx(0, 1.5*xfer, loads, nil)
	got := NewImpactDriven().Select(ctx)
	if len(got) != 1 || got[0].Layer != 1 {
		t.Fatalf("near layer should win the slot: %v", got)
	}
}

func TestImpactDrivenBudgetRespected(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{
		1: loadsWith(cfg, map[int]int{0: 50, 1: 40, 2: 30, 3: 20, 4: 10}),
	}
	xfer := hw.A6000Platform().Links[0].TransferTime(cfg.ExpertBytes())
	for _, budgetXfers := range []float64{0.5, 1, 2.2, 3.7, 100} {
		ctx := testCtx(0, budgetXfers*xfer, loads, nil)
		got := NewImpactDriven().Select(ctx)
		if float64(len(got)) > budgetXfers {
			t.Fatalf("budget %.1f transfers exceeded: selected %d", budgetXfers, len(got))
		}
	}
}

// Multi-GPU: each pick spends its target device's link budget, priced
// by that device's own link model, so one saturated link does not stop
// prefetch onto the other.
func TestSelectSpendsPerDeviceBudgets(t *testing.T) {
	cfg := moe.DeepSeek()
	loads := map[int][]int{1: loadsWith(cfg, map[int]int{0: 10, 1: 9, 2: 8, 3: 7})}
	ctx := testCtx(0, 0, loads, nil)
	ctx.Platform = hw.DualA6000Platform()
	xfer := ctx.Platform.Links[0].TransferTime(cfg.ExpertBytes())
	// Device 0's link has room for one transfer, device 1's for two.
	ctx.Budgets = []float64{1.5 * xfer, 2.5 * xfer}
	ctx.Target = func(id moe.ExpertID) hw.Device { return hw.GPUAt(id.Index % 2) }
	got := NewNextLayerTopK().Select(ctx)
	perDev := map[hw.Device]int{}
	for _, id := range got {
		perDev[ctx.Target(id)]++
	}
	if perDev[hw.GPUAt(0)] != 1 || perDev[hw.GPUAt(1)] != 2 {
		t.Fatalf("picks per device = %v (selection %v), want 1 on GPU0 and 2 on GPU1", perDev, got)
	}
}
