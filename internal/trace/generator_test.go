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
// k = 1, k = E and k = E-1, E = 2 and k = E/2, and E = 300, whose rows
// carry more candidates than the widest ranking network; 30 seeds at 1
// to 513 tokens, with a cached normal at the row start on alternate
// calls; and options where every float32 row ties, where TokenNoise
// swamps the latents, and where it is negative.
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
		{"E300k200", shape("E300k200", 1, 300, 200), nil},
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
// model, at most one row in ten may compute an exact Box-Muller radius
// or value outside the dense fallback, on average: the two-sided bounds
// compute 0.05, 0.06 and 0.07 of each per row (Qwen2, DeepSeek,
// Mixtral). The one-sided bounds before them computed the counts below,
// and the selection before those 13.24 radii and 14.95 values, 9.94 and
// 10.81, and 3.08 and 4.12. At least nine rows in ten must also settle
// straight from the ranking, without the partition pass: 0.966, 0.948
// and 0.931 do.
func TestPrefillExactValuesPerRow(t *testing.T) {
	const maxPerRow, minRanked = 0.1, 0.9
	for _, c := range []struct {
		cfg           *moe.Config
		radii, values float64
	}{
		{moe.Qwen2(), 3.77, 3.99},
		{moe.DeepSeek(), 1.81, 1.88},
		{moe.Mixtral(), 0.74, 0.88},
	} {
		g := New(c.cfg, DefaultOptions(1))
		g.Advance()
		for l := 0; l < c.cfg.Layers; l++ {
			g.PrefillLoads(l, 256)
		}
		rows := float64(c.cfg.Layers * 256)
		radii, values := float64(g.draw.radii)/rows, float64(g.draw.values)/rows
		ranked := float64(g.draw.ranked) / rows
		t.Logf("%s: %.2f exact radii and %.2f exact values per row, %.2f and %.2f with one-sided bounds; %.3f of rows settled by the ranking",
			c.cfg.Name, radii, values, c.radii, c.values, ranked)
		if radii > maxPerRow || values > maxPerRow {
			t.Errorf("%s: %.2f exact radii and %.2f exact values per row; want at most %.2f of each",
				c.cfg.Name, radii, values, maxPerRow)
		}
		if ranked < minRanked {
			t.Errorf("%s: %.3f of rows settled by the ranking; want at least %.2f", c.cfg.Name, ranked, minRanked)
		}
	}
}

// TestTrigBoundsHold checks the bound behind every candidate's lo and
// hi directly. For σ of either sign (flip 0 or a half turn), in every
// angle bucket, at its two edges, its middle and 16 random angles, the
// cosine and the sine the exact path computes (negated for σ < 0) lie
// within trigBounds. Next to a multiple of a quarter turn, a bucket
// edge's Taylor remainder nearly reaches trigRemainder, so a narrower
// margin fails here; it would move a load only on a rare near-tie.
func TestTrigBoundsHold(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, flip := range []int{0, angleBuckets / 2} {
		for j := range angleBuckets {
			vs := []float64{float64(j) / angleBuckets, (float64(j) + 0.5) / angleBuckets, float64(j+1)/angleBuckets - 0x1p-53}
			for range 16 {
				vs = append(vs, (float64(j)+rng.Float64())/angleBuckets)
			}
			for _, v := range vs {
				theta := stats.BoxMullerAngle(v)
				for h, want := range []float64{math.Cos(theta), math.Sin(theta)} {
					if flip != 0 {
						want = -want
					}
					if lo, hi := trigBounds(v, h, flip); !(lo <= want && want <= hi) {
						t.Fatalf("flip %d, v = %v, half %d: value %v outside [%v, %v]", flip, v, h, want, lo, hi)
					}
				}
			}
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

// refNew, refForkHistory, refAdvance and refPredictedScores are the
// generator's normal loops as they were written before the batch draw:
// one NormMeanStd call per variate.
func refNew(cfg *moe.Config, opts Options) *Generator {
	opts.fillDefaults()
	g := &Generator{cfg: cfg, opts: opts, rng: stats.NewRNG(opts.Seed)}
	g.base = make([][]float64, cfg.Layers)
	g.latent = make([][]float64, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		g.base[l] = make([]float64, cfg.RoutedExperts)
		g.latent[l] = make([]float64, cfg.RoutedExperts)
		for e := range g.base[l] {
			g.base[l][e] = g.rng.NormMeanStd(0, opts.BaseSpread)
			g.latent[l][e] = g.base[l][e] + g.rng.NormMeanStd(0, opts.NoiseStd)
		}
	}
	return g
}

func refForkHistory(g *Generator, seed uint64) *Generator {
	h := &Generator{cfg: g.cfg, opts: g.opts, rng: stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)}
	h.opts.Seed = seed
	h.base = make([][]float64, g.cfg.Layers)
	h.latent = make([][]float64, g.cfg.Layers)
	for l := range g.base {
		h.base[l] = append([]float64(nil), g.base[l]...)
		h.latent[l] = make([]float64, len(g.latent[l]))
		for e := range h.latent[l] {
			h.latent[l][e] = h.base[l][e] + h.rng.NormMeanStd(0, h.opts.NoiseStd)
		}
	}
	return h
}

func refAdvance(g *Generator) {
	rho := g.opts.TemporalCorr
	innov := g.opts.NoiseStd * math.Sqrt(1-rho*rho)
	for l := range g.latent {
		for e := range g.latent[l] {
			dev := g.latent[l][e] - g.base[l][e]
			g.latent[l][e] = g.base[l][e] + rho*dev + g.rng.NormMeanStd(0, innov)
		}
	}
	g.iter++
}

func refPredictedScores(g *Generator, layer, lookahead int) []float64 {
	h := g.opts.Seed
	h = h*0x100000001b3 ^ uint64(g.iter+1)
	h = h*0x100000001b3 ^ uint64(layer+1)
	h = h*0x100000001b3 ^ uint64(lookahead)
	g.predRNG.Reseed(h)
	noisy := append([]float64(nil), g.latent[layer]...)
	sigma := g.opts.PredNoise * float64(lookahead)
	for e := range noisy {
		noisy[e] += g.predRNG.NormMeanStd(0, sigma)
	}
	softmax64InPlace(noisy)
	return noisy
}

// sameBits reports the first entry where a and b differ in any bit.
func sameBits(a, b [][]float64) error {
	for l := range a {
		for e := range a[l] {
			if math.Float64bits(a[l][e]) != math.Float64bits(b[l][e]) {
				return fmt.Errorf("layer %d expert %d: %v, reference %v", l, e, a[l][e], b[l][e])
			}
		}
	}
	return nil
}

// sameNextDraws reports whether a and b hold the same cached variate
// and continue with the same uniforms.
func sameNextDraws(a, b *stats.RNG) error {
	za, oka := a.TakeCached()
	zb, okb := b.TakeCached()
	if oka != okb || math.Float64bits(za) != math.Float64bits(zb) {
		return fmt.Errorf("cached variate (%v, %v), reference (%v, %v)", za, oka, zb, okb)
	}
	if a.Uint64() != b.Uint64() {
		return errors.New("the uniforms after the call diverged")
	}
	return nil
}

// TestNormalLoopsMatchNormMeanStd pins New, ForkHistory, Advance and
// PredictedScoresInto, which draw each layer's normals pairwise from
// one batch, bit for bit to the NormMeanStd loops above, on even and
// odd expert counts (64, 63, 2 and 1). Advance runs from no cached
// variate, from one held at entry, and from the one a prefill call over
// an odd expert count leaves; predictions run at lookaheads 1 to 3 on
// every layer. Each comparison also checks the draws that follow.
func TestNormalLoopsMatchNormMeanStd(t *testing.T) {
	shape := func(experts, k int) *moe.Config {
		return &moe.Config{Name: fmt.Sprintf("E%d", experts), Layers: 3, RoutedExperts: experts,
			ActivatedExperts: k, Hidden: 1, Intermediate: 1}
	}
	for _, cfg := range []*moe.Config{moe.DeepSeek(), shape(63, 5), shape(2, 1), shape(1, 1)} {
		for seed := uint64(1); seed <= 4; seed++ {
			a, b := New(cfg, DefaultOptions(seed)), refNew(cfg, DefaultOptions(seed))
			if err := sameBits(a.base, b.base); err != nil {
				t.Fatalf("%s seed %d: New's base: %v", cfg.Name, seed, err)
			}
			if err := sameBits(a.latent, b.latent); err != nil {
				t.Fatalf("%s seed %d: New's latent: %v", cfg.Name, seed, err)
			}
			if err := sameNextDraws(a.rng, b.rng); err != nil {
				t.Fatalf("%s seed %d: after New: %v", cfg.Name, seed, err)
			}
			ha, hb := a.ForkHistory(seed+100), refForkHistory(b, seed+100)
			if err := sameBits(ha.latent, hb.latent); err != nil {
				t.Fatalf("%s seed %d: ForkHistory: %v", cfg.Name, seed, err)
			}
			if err := sameNextDraws(ha.rng, hb.rng); err != nil {
				t.Fatalf("%s seed %d: after ForkHistory: %v", cfg.Name, seed, err)
			}
			for it := 0; it < 6; it++ {
				entry := []string{"none", "held", "prefill"}[it%3]
				holdCached(a.rng, entry == "held")
				holdCached(b.rng, entry == "held")
				if entry == "prefill" {
					// One token over an odd row leaves its last pair's sine
					// half cached.
					a.PrefillLoads(it%cfg.Layers, 1)
					denseLoads(b, it%cfg.Layers, 1)
					z, ok := a.rng.TakeCached()
					if ok != (cfg.RoutedExperts%2 == 1) {
						t.Fatalf("%s: a one-token prefill left a cached variate: %v", cfg.Name, ok)
					}
					if ok {
						a.rng.PutCached(z)
					}
				}
				a.Advance()
				refAdvance(b)
				if err := sameBits(a.latent, b.latent); err != nil {
					t.Fatalf("%s seed %d iteration %d, entry %s: Advance: %v", cfg.Name, seed, it, entry, err)
				}
				for l := 0; l < cfg.Layers; l++ {
					for look := 1; look <= 3; look++ {
						got, want := a.PredictedScoresInto(nil, l, look), refPredictedScores(b, l, look)
						if err := sameBits([][]float64{got}, [][]float64{want}); err != nil {
							t.Fatalf("%s seed %d iteration %d: PredictedScoresInto(%d, %d): %v", cfg.Name, seed, it, l, look, err)
						}
						if err := sameNextDraws(&a.predRNG, &b.predRNG); err != nil {
							t.Fatalf("%s seed %d iteration %d: after PredictedScoresInto(%d, %d): %v", cfg.Name, seed, it, l, look, err)
						}
					}
				}
				if err := sameNextDraws(a.rng, b.rng); err != nil {
					t.Fatalf("%s seed %d iteration %d, entry %s: after Advance: %v", cfg.Name, seed, it, entry, err)
				}
			}
		}
	}
}
