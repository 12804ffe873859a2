package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/trace"
)

func render(t *testing.T, r Renderable) string {
	t.Helper()
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	if len(out) == 0 {
		t.Fatal("experiment rendered nothing")
	}
	return out
}

func TestFig3aShape(t *testing.T) {
	p := QuickParams()
	out := render(t, Fig3a(p))
	for _, want := range []string{"Opt-Neuron", "Mixtral-Expert", "Deepseek-Expert"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing series %q:\n%s", want, out)
		}
	}
	fig := Fig3a(p)
	// Neuron CDF must dominate expert CDFs at the top-20% mark
	// (index 3 = 20% with 5%-steps).
	neuron := fig.Series[0].Y[3]
	mix := fig.Series[1].Y[3]
	ds := fig.Series[2].Y[3]
	if neuron <= mix || neuron <= ds {
		t.Fatalf("top-20%% shares: neuron %v should dominate experts %v/%v", neuron, mix, ds)
	}
	// Every CDF ends at 100%.
	for _, s := range fig.Series {
		if last := s.Y[len(s.Y)-1]; last < 99.99 {
			t.Fatalf("series %s CDF ends at %v", s.Name, last)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	fig := Fig3b(QuickParams())
	ys := fig.Series[0].Y
	if len(ys) != 64 {
		t.Fatalf("ranks = %d, want 64", len(ys))
	}
	// Top ranks reuse more than bottom ranks.
	var top, bottom float64
	for _, v := range ys[:6] {
		top += v
	}
	for _, v := range ys[48:] {
		bottom += v
	}
	if top/6 <= bottom/16 {
		t.Fatalf("reuse not decreasing: top %v bottom %v", top/6, bottom/16)
	}
}

func TestFig3cShape(t *testing.T) {
	fig := Fig3c(QuickParams())
	ys := fig.Series[0].Y
	var total float64
	for _, v := range ys {
		total += v
	}
	if total != 128*6 {
		t.Fatalf("total workload %v, want %d", total, 128*6)
	}
}

func TestFig3dRuns(t *testing.T) {
	tbl := Fig3d(QuickParams())
	if tbl.NumRows() != 3 {
		t.Fatalf("scenarios = %d, want 3", tbl.NumRows())
	}
	out := render(t, tbl)
	if !strings.Contains(out, "Mixtral decode-10") {
		t.Fatalf("missing scenario:\n%s", out)
	}
}

func TestFig3eShape(t *testing.T) {
	fig := Fig3e()
	cpu, gpu := fig.Series[0].Y, fig.Series[1].Y
	// CPU first expert pays warm-up: increment 0→1 exceeds 1→2.
	firstInc := cpu[0]
	secondInc := cpu[1] - cpu[0]
	if firstInc <= secondInc {
		t.Fatalf("first CPU expert should cost more: %v vs %v", firstInc, secondInc)
	}
	// GPU linear in experts.
	if gpu[6] <= gpu[0]*6 {
		t.Fatalf("GPU should scale ~linearly: %v vs %v", gpu[6], gpu[0])
	}
}

func TestFig3fShape(t *testing.T) {
	fig := Fig3f()
	cpu, gpu := fig.Series[0].Y, fig.Series[1].Y
	n := len(cpu)
	cpuGrowth := cpu[n-1] / cpu[0]
	gpuGrowth := gpu[n-1] / gpu[0]
	if cpuGrowth < 5*gpuGrowth {
		t.Fatalf("CPU growth %.1fx should dwarf GPU growth %.1fx", cpuGrowth, gpuGrowth)
	}
}

// TestFig9MRSWins pins Fig 9's claim on the numbers its cells compute:
// MRS beats LRU on every model at every cached-expert percentage.
func TestFig9MRSWins(t *testing.T) {
	p := QuickParams()
	p.HitRateIters = 80
	results := runCells(fig9Cells(p))
	if len(results) != 18 { // 3 models × 6 capacities
		t.Fatalf("cells = %d, want 18", len(results))
	}
	for _, rows := range results {
		r := rows[0]
		lru, mrs := r[2].(float64), r[3].(float64)
		if mrs <= lru {
			t.Errorf("%s at %d%% cached: MRS hit rate %.4f does not beat LRU %.4f", r[0], r[1], mrs, lru)
		}
	}
}

// TestFig8HybriMoEBeatsKTransformers pins the decode headline on Fig 8's
// speedup column: HybriMoE beats kTransformers on every model and cache
// ratio, and the mean speedup lies in the band the benchmark's
// paper-grid check accepts around the paper's 1.70×.
func TestFig8HybriMoEBeatsKTransformers(t *testing.T) {
	_, speedups := Fig8(QuickParams())
	if len(speedups) != 9 { // 3 models × 3 cache ratios
		t.Fatalf("rows = %d, want 9", len(speedups))
	}
	for i, s := range speedups {
		if s <= 1 {
			t.Errorf("row %d: decode speedup over kTransformers %.3f, want above 1", i, s)
		}
	}
	if m := mean(speedups); m < 1.50 || m > 1.90 {
		t.Errorf("mean decode speedup %.3f outside [1.50, 1.90] (paper: 1.70)", m)
	}
}

func TestCacheHitRateMRSBeatsLRUTightCache(t *testing.T) {
	cfg := moe.DeepSeek()
	opts := trace.DefaultOptions(9)
	lru := CacheHitRate(cfg, cache.NewLRU(), 0.3, 150, opts)
	mrs := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), 0.3, 150, opts)
	t.Logf("30%% capacity: LRU=%.3f MRS=%.3f", lru, mrs)
	if mrs <= lru {
		t.Fatalf("MRS %.3f should beat LRU %.3f at 30%% capacity", mrs, lru)
	}
	// The gap narrows at high capacity (Fig 9's convergence).
	lruHi := CacheHitRate(cfg, cache.NewLRU(), 0.75, 150, opts)
	mrsHi := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), 0.75, 150, opts)
	if (mrsHi - lruHi) >= (mrs - lru) {
		t.Fatalf("MRS advantage should narrow at 75%%: low %.3f hi %.3f", mrs-lru, mrsHi-lruHi)
	}
}

// TestTable3AblationOrdering pins Table III's decode ordering on the
// numbers it computes: every technique alone beats Baseline, and all of
// them together are the fastest decode configuration. The prefill
// ordering is left unpinned: whether prefill may evict experts its own
// forward pass still needs is an open modelling decision that moves it.
func TestTable3AblationOrdering(t *testing.T) {
	p := QuickParams()
	p.DecodeSteps = 15
	rows := table3Rows(p)
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	decode := map[string]float64{}
	for _, r := range rows {
		if r[0] != "decode" {
			continue
		}
		technique, lat, speedup := r[1].(string), r[2].(float64), r[3].(float64)
		decode[technique] = lat
		if technique != "Baseline" && speedup <= 1 {
			t.Errorf("decode %s speedup %.3f does not beat Baseline", technique, speedup)
		}
	}
	all, hasAll := decode["All"]
	if _, hasBase := decode["Baseline"]; !hasAll || !hasBase {
		t.Fatalf("decode rows lack Baseline or All: %v", decode)
	}
	for technique, lat := range decode {
		if technique != "All" && lat <= all {
			t.Errorf("decode %s (%.4fs) is not slower than All (%.4fs)", technique, lat, all)
		}
	}
}

func TestAblationGreedyVsExhaustive(t *testing.T) {
	mean, worst := AblationGreedyVsExhaustive(60, 7)
	t.Logf("greedy/optimal mean=%.3f worst=%.3f", mean, worst)
	if mean < 1-1e-9 {
		t.Fatalf("greedy cannot beat the optimum on average: %v", mean)
	}
	if worst > 1.6 {
		t.Fatalf("greedy worst case %.2fx too far from optimal", worst)
	}
}

func TestLookupAndRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) < 15 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	if _, err := Lookup("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestQuickExperimentsRun(t *testing.T) {
	// Smoke: the cheap experiments must run end to end via the registry.
	p := QuickParams()
	p.DecodeSteps = 3
	p.HitRateIters = 30
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig3e", "fig3f", "abl-topp", "abl-prefetch"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		render(t, e.Run(p))
	}
}
