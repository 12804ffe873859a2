package trace

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

func dsGen(seed uint64) *Generator {
	return New(moe.DeepSeek(), DefaultOptions(seed))
}

func TestScoresNormalised(t *testing.T) {
	g := dsGen(1)
	g.Advance()
	for l := 0; l < 3; l++ {
		scores := g.Scores(l)
		if len(scores) != 64 {
			t.Fatalf("scores length %d", len(scores))
		}
		var sum float64
		for _, s := range scores {
			if s < 0 {
				t.Fatal("negative score")
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("layer %d scores sum %v", l, sum)
		}
	}
}

func TestActivatedAreTopK(t *testing.T) {
	g := dsGen(2)
	g.Advance()
	act := g.Activated(0)
	if len(act) != 6 {
		t.Fatalf("activated %d experts, want 6", len(act))
	}
	scores := g.Scores(0)
	minActive := math.Inf(1)
	for _, e := range act {
		if scores[e] < minActive {
			minActive = scores[e]
		}
	}
	inactive := make(map[int]bool)
	for _, e := range act {
		inactive[e] = true
	}
	for e, s := range scores {
		if !inactive[e] && s > minActive+1e-12 {
			t.Fatalf("inactive expert %d outscores an active one", e)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := dsGen(7), dsGen(7)
	for i := 0; i < 5; i++ {
		a.Advance()
		b.Advance()
	}
	sa, sb := a.Scores(3), b.Scores(3)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed must reproduce identical traces")
		}
	}
}

func TestFig3aExpertCDFLessSkewedThanNeurons(t *testing.T) {
	g := dsGen(3)
	expertCounts := ActivationCounts(g, 300)
	neuronCounts := NeuronActivationCounts(4096, 300, 256, 1.1, 3)
	ge := stats.GiniCoefficient(expertCounts)
	gn := stats.GiniCoefficient(neuronCounts)
	if ge >= gn {
		t.Fatalf("expert gini %v should be below neuron gini %v (Fig 3a)", ge, gn)
	}
	// Experts: moderately even. Neurons: strongly skewed.
	if ge < 0.05 || ge > 0.5 {
		t.Errorf("expert gini %v outside plausible band [0.05, 0.5]", ge)
	}
	if gn < 0.5 {
		t.Errorf("neuron gini %v should be strongly skewed (>0.5)", gn)
	}
	// Top 20%% of experts should NOT cover 80%% of activations.
	cdf := stats.FrequencyCDF(expertCounts)
	at20 := cdf[len(cdf)/5]
	if at20 > 0.6 {
		t.Errorf("top-20%% expert share %v too concentrated for MoE", at20)
	}
	// While top 20%% of neurons should cover most activations.
	ncdf := stats.FrequencyCDF(neuronCounts)
	if n20 := ncdf[len(ncdf)/5]; n20 < 0.6 {
		t.Errorf("top-20%% neuron share %v too flat for neuron sparsity", n20)
	}
}

func TestFig3bReuseDecreasingInRank(t *testing.T) {
	g := dsGen(4)
	reuse := ReuseByRank(g, 400)
	k := g.Config().ActivatedExperts
	// Top-rank experts should be reused far more than tail experts.
	top := mean(reuse[:k])
	tail := mean(reuse[len(reuse)-16:])
	if top < 2*tail {
		t.Fatalf("top reuse %v should be ≥2× tail reuse %v (Fig 3b)", top, tail)
	}
	// The baseline activation rate is K/N; top ranks must exceed it.
	base := float64(k) / float64(g.Config().RoutedExperts)
	if top <= base {
		t.Fatalf("top reuse %v should beat baseline rate %v", top, base)
	}
	// Reuse beyond rank k must not be ~zero: unactivated high-scorers
	// still return (the insight motivating MRS over LFU).
	nearMiss := mean(reuse[k : 2*k])
	if nearMiss <= base/2 {
		t.Fatalf("near-miss reuse %v too low vs baseline %v", nearMiss, base)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig3cPrefillLoadsUneven(t *testing.T) {
	g := dsGen(5)
	g.Advance()
	loads := g.PrefillLoads(0, 128)
	total := 0
	maxLoad := 0
	active := 0
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
		if l > 0 {
			active++
		}
	}
	if total != 128*6 {
		t.Fatalf("total load %d, want %d", total, 128*6)
	}
	avg := float64(total) / 64
	// Figure 3(c): loads vary strongly around the mean.
	if float64(maxLoad) < 1.5*avg {
		t.Fatalf("max load %d too close to mean %v; want uneven distribution", maxLoad, avg)
	}
	// Most experts touched by a 128-token prefill on 64 experts.
	if active < 32 {
		t.Fatalf("only %d experts active in prefill, expected broad coverage", active)
	}
}

func TestPredictedScoresStableAndDegrading(t *testing.T) {
	g := dsGen(6)
	g.Advance()
	p1a := g.PredictedScores(3, 1)
	p1b := g.PredictedScores(3, 1)
	for i := range p1a {
		if p1a[i] != p1b[i] {
			t.Fatal("prediction must be stable within an iteration")
		}
	}
	if got := g.PredictedScores(3, 0); got[0] != g.Scores(3)[0] {
		t.Fatal("lookahead 0 must return true scores")
	}
	// Accuracy must degrade with lookahead (fresh generators so each
	// measurement sees identical process statistics).
	a1 := InterLayerPredictionAccuracy(dsGen(60), 1, 60)
	a3 := InterLayerPredictionAccuracy(dsGen(60), 3, 60)
	a6 := InterLayerPredictionAccuracy(dsGen(60), 6, 60)
	if !(a1 > a3 && a3 > a6) {
		t.Fatalf("prediction accuracy should degrade with lookahead: %v %v %v", a1, a3, a6)
	}
	if a1 < 0.4 {
		t.Fatalf("1-layer lookahead accuracy %v too weak to justify prefetching", a1)
	}
}

func TestAdvanceChangesActivations(t *testing.T) {
	g := dsGen(8)
	g.Advance()
	first := append([]int(nil), g.Activated(0)...)
	changed := false
	for i := 0; i < 10; i++ {
		g.Advance()
		cur := g.Activated(0)
		for j := range cur {
			if cur[j] != first[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("activations never changed over 10 iterations — process frozen")
	}
	if g.Iteration() != 11 {
		t.Fatalf("iteration counter = %d, want 11", g.Iteration())
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	g := dsGen(9)
	g.Advance()
	for name, fn := range map[string]func(){
		"bad layer":     func() { g.Scores(99) },
		"neg layer":     func() { g.Scores(-1) },
		"neg lookahead": func() { g.PredictedScores(0, -1) },
		"zero tokens":   func() { g.PrefillLoads(0, 0) },
		"bad config":    func() { New(&moe.Config{Name: "bad"}, Options{}) },
		"bad neuron":    func() { NeuronActivationCounts(0, 1, 1, 1, 1) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDecodeStepShape(t *testing.T) {
	g := dsGen(10)
	acts := DecodeStepInto(nil, g)
	if len(acts) != 26 {
		t.Fatalf("decode step layers = %d, want 26", len(acts))
	}
	for _, a := range acts {
		active := 0
		for _, load := range a.Loads {
			if load > 0 {
				active++
			}
		}
		if active != 6 {
			t.Fatalf("layer %d active experts = %d, want 6", a.Layer, active)
		}
		if a.TotalLoad() != 6 {
			t.Fatalf("layer %d decode load = %d, want 6", a.Layer, a.TotalLoad())
		}
		if len(a.Scores) != 64 {
			t.Fatalf("missing score signal")
		}
	}
}

func TestPrefillStepShape(t *testing.T) {
	g := dsGen(11)
	acts := PrefillStep(g, 32)
	if len(acts) != 26 {
		t.Fatalf("prefill step layers = %d", len(acts))
	}
	for _, a := range acts {
		if a.TotalLoad() != 32*6 {
			t.Fatalf("layer %d prefill load = %d, want %d", a.Layer, a.TotalLoad(), 32*6)
		}
	}
}

func TestMixtralGeneratorWorks(t *testing.T) {
	g := New(moe.Mixtral(), DefaultOptions(12))
	g.Advance()
	if got := len(g.Activated(0)); got != 2 {
		t.Fatalf("Mixtral activates %d, want 2", got)
	}
	loads := g.PrefillLoads(0, 64)
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != 128 {
		t.Fatalf("Mixtral prefill total load = %d, want 128", total)
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	var o Options
	o.fillDefaults()
	d := DefaultOptions(0)
	if o != d {
		t.Fatalf("fillDefaults = %+v, want %+v", o, d)
	}
	// Partial override survives.
	o2 := Options{TemporalCorr: 0.5}
	o2.fillDefaults()
	if o2.TemporalCorr != 0.5 || o2.NoiseStd != d.NoiseStd {
		t.Fatalf("partial defaults broken: %+v", o2)
	}
}

// TestPrefillLoadsAllocationsFlatInTokens pins the per-token loop as
// allocation-free on every model: after a warm-up call, routing 512
// tokens through a layer allocates no more than routing one (the
// returned loads; the draw's O(E) scratch is reused).
func TestPrefillLoadsAllocationsFlatInTokens(t *testing.T) {
	for _, cfg := range []*moe.Config{moe.DeepSeek(), moe.Qwen2(), moe.Mixtral()} {
		g := New(cfg, DefaultOptions(5))
		g.PrefillLoads(0, 1)
		one := testing.AllocsPerRun(20, func() { g.PrefillLoads(0, 1) })
		many := testing.AllocsPerRun(20, func() { g.PrefillLoads(0, 512) })
		if many > one {
			t.Fatalf("%s: PrefillLoads allocated %.1f times for 512 tokens, %.1f for 1", cfg.Name, many, one)
		}
	}
}

// TestScratchSelectionMatchesTopK pins the routing selections to dense
// reference loops on twin generators. DecodeStepInto must match the
// allocating float32 TopK path. The pruned prefill draw must match
// denseLoads, a copy of the per-token loop it replaced, through
// matchDense on every layer: the three models, an odd expert count,
// k = 1, k = E and k = E-1, E = 2 and k = E/2; 30 seeds at 1 to 513
// tokens, with a cached normal at the row start on alternate calls; and
// options where every float32 row ties, where TokenNoise swamps the
// latents, and where it is negative.
func TestScratchSelectionMatchesTopK(t *testing.T) {
	cfg := moe.DeepSeek()
	k := cfg.ActivatedExperts
	a, b := New(cfg, DefaultOptions(6)), New(cfg, DefaultOptions(6))
	for it := 0; it < 5; it++ {
		acts := DecodeStepInto(nil, a)
		b.Advance()
		for l, act := range acts {
			want := make([]int, cfg.RoutedExperts)
			for _, e := range topKIndices(b.Scores(l), k) {
				want[e] = 1
			}
			if !reflect.DeepEqual(act.Loads, want) || !reflect.DeepEqual(act.Scores, b.Scores(l)) {
				t.Fatalf("iter %d layer %d: DecodeStepInto diverged from TopK", it, l)
			}
		}
	}

	shape := func(name string, layers, experts, k int) *moe.Config {
		return &moe.Config{Name: name, Layers: layers, RoutedExperts: experts,
			ActivatedExperts: k, Hidden: 1, Intermediate: 1}
	}
	const tiny = 1e-300
	cases := []struct {
		name  string
		cfg   *moe.Config
		tweak func(*Options)
	}{
		{"DeepSeek", moe.DeepSeek(), nil},
		{"Qwen2", moe.Qwen2(), nil},
		{"Mixtral", moe.Mixtral(), nil},
		{"E63k5", shape("E63k5", 6, 63, 5), nil},
		{"E64k1", shape("E64k1", 6, 64, 1), nil},
		{"E9k9", shape("E9k9", 6, 9, 9), nil},
		{"E9k8", shape("E9k8", 6, 9, 8), nil},
		{"E2k1", shape("E2k1", 6, 2, 1), nil},
		{"E64k32", shape("E64k32", 6, 64, 32), nil},
		{"ties", shape("ties", 4, 63, 5), func(o *Options) { o.BaseSpread, o.NoiseStd, o.TokenNoise = tiny, tiny, tiny }},
		{"wide", shape("wide", 4, 64, 6), func(o *Options) { o.TokenNoise = 1e6 }},
		{"negative", shape("negative", 4, 63, 5), func(o *Options) { o.TokenNoise = -1.3 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 30; seed++ {
				opts := DefaultOptions(seed)
				if c.tweak != nil {
					c.tweak(&opts)
				}
				a, b := New(c.cfg, opts), New(c.cfg, opts)
				call := 0
				for _, tokens := range []int{1, 2, 7, 64, 129, 513} {
					a.Advance()
					b.Advance()
					for l := 0; l < c.cfg.Layers; l++ {
						call++
						if err := matchDense(a, b, l, tokens, call%2 == 1); err != nil {
							t.Fatalf("seed %d layer %d, %d tokens, cached start %v: %v", seed, l, tokens, call%2 == 1, err)
						}
					}
				}
			}
		})
	}
}

// FuzzPrefillMatchesDense runs matchDense on a shape and options decoded
// from the input: E from 1 to 80 experts, k from 1 to E, the seed, 1 to
// 600 tokens, a TokenNoise of the default, -1.3, 1e-300, 1e6 or 0.05,
// and whether the RNG holds a cached variate as each call starts. Both
// layers of the model are routed.
func FuzzPrefillMatchesDense(f *testing.F) {
	f.Add(uint8(63), uint8(4), uint64(1), uint16(128), uint8(0), false)
	f.Add(uint8(8), uint8(7), uint64(2), uint16(35), uint8(1), true)
	f.Add(uint8(1), uint8(0), uint64(3), uint16(5), uint8(2), true)
	f.Add(uint8(79), uint8(39), uint64(4), uint16(599), uint8(3), false)
	f.Add(uint8(63), uint8(5), uint64(5), uint16(256), uint8(4), true)
	noises := []float64{0, -1.3, 1e-300, 1e6, 0.05}
	f.Fuzz(func(t *testing.T, e, k uint8, seed uint64, tokens uint16, noise uint8, cached bool) {
		experts := 1 + int(e)%80
		cfg := &moe.Config{Name: "fuzz", Layers: 2, RoutedExperts: experts,
			ActivatedExperts: 1 + int(k)%experts, Hidden: 1, Intermediate: 1}
		opts := DefaultOptions(seed)
		opts.TokenNoise = noises[int(noise)%len(noises)]
		n := 1 + int(tokens)%600
		a, b := New(cfg, opts), New(cfg, opts)
		for l := 0; l < cfg.Layers; l++ {
			if err := matchDense(a, b, l, n, cached); err != nil {
				t.Fatalf("E=%d k=%d seed %d TokenNoise %v, layer %d, %d tokens, cached start %v: %v",
					experts, cfg.ActivatedExperts, seed, opts.TokenNoise, l, n, cached, err)
			}
		}
	})
}

// matchDense routes tokens through layer on twin generators, a by
// PrefillLoads and b by denseLoads, with each RNG holding a cached
// variate at the start when cached is set. The loads must match, and so
// must the draws that follow. The RNG structs are not compared: the
// dense loop leaves a stale cached variate behind that no later draw can
// observe.
func matchDense(a, b *Generator, layer, tokens int, cached bool) error {
	holdCached(a.rng, cached)
	holdCached(b.rng, cached)
	got, want := a.PrefillLoads(layer, tokens), denseLoads(b, layer, tokens)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("loads %v, dense loop %v", got, want)
	}
	za, zb := a.rng.Norm(), b.rng.Norm()
	if math.Float64bits(za) != math.Float64bits(zb) || a.rng.Uint64() != b.rng.Uint64() {
		return errors.New("the draws after the call diverged")
	}
	return nil
}

// TestPrefillExactValuesPerRow pins the saving of the bounded selection
// as a count. On seed-1, 256-token prefills over every layer of each
// model, the exact Box-Muller radii and values computed per row outside
// the dense fallback must stay within a third of what the selection
// before it computed on the same rows. That one valued every entry
// whose bucket bound reached τ after a re-check with the exact radius;
// its counts are below.
func TestPrefillExactValuesPerRow(t *testing.T) {
	for _, c := range []struct {
		cfg           *moe.Config
		radii, values float64
	}{
		{moe.Qwen2(), 13.24, 14.95},
		{moe.DeepSeek(), 9.94, 10.81},
		{moe.Mixtral(), 3.08, 4.12},
	} {
		g := New(c.cfg, DefaultOptions(1))
		g.Advance()
		for l := 0; l < c.cfg.Layers; l++ {
			g.PrefillLoads(l, 256)
		}
		rows := float64(c.cfg.Layers * 256)
		radii, values := float64(g.draw.radii)/rows, float64(g.draw.values)/rows
		t.Logf("%s: %.2f exact radii and %.2f exact values per row, %.2f and %.2f before",
			c.cfg.Name, radii, values, c.radii, c.values)
		if radii > c.radii/3 || values > c.values/3 {
			t.Errorf("%s: %.2f exact radii and %.2f exact values per row; want at most a third of %.2f and %.2f",
				c.cfg.Name, radii, values, c.radii, c.values)
		}
	}
}

// holdCached leaves r holding a cached Box-Muller variate when want is
// set, by drawing one normal if it holds none, and otherwise drops the
// cached variate if it holds one. Twin generators stay twins.
func holdCached(r *stats.RNG, want bool) {
	z, ok := r.TakeCached()
	switch {
	case want && ok:
		r.PutCached(z)
	case want:
		r.Norm()
	}
}

// denseLoads is the dense prefill routing loop the pruned draw
// replaced: every entry's exact float32 logit, then TopKInto over the
// full row, once per token.
func denseLoads(g *Generator, layer, tokens int) []int {
	n, k := g.cfg.RoutedExperts, g.cfg.ActivatedExperts
	loads := make([]int, n)
	row := make([]float32, n)
	var top []int
	for tok := 0; tok < tokens; tok++ {
		for e, v := range g.latent[layer] {
			row[e] = float32(v + g.rng.NormMeanStd(0, g.opts.TokenNoise))
		}
		top = tensor.TopKInto(top, row, k)
		for _, e := range top {
			loads[e]++
		}
	}
	return loads
}
