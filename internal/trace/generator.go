// Package trace synthesises MoE routing activity with the statistical
// properties the paper measures in its motivation study (Figure 3):
//
//   - activation frequency across experts is moderately even — far less
//     skewed than neuron-level sparsity (Fig. 3a);
//   - experts with higher routing scores in one iteration are more
//     likely to be activated in the next (Fig. 3b), the signal the MRS
//     cache exploits;
//   - per-expert token loads in a prefill forward are uneven (Fig. 3c);
//   - adjacent layers' decisions are predictable from the current
//     hidden state (§III Opportunity 1), modelled as score predictions
//     whose noise grows with lookahead distance — the signal the
//     impact-driven prefetcher consumes.
//
// The generator evolves one latent logit vector per layer as a
// mean-reverting AR(1) process across decode iterations; routing scores
// are the softmax of the latent state.
package trace

import (
	"fmt"
	"math"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

// Options tunes the synthetic routing process. Zero values select the
// calibrated defaults (DefaultOptions).
type Options struct {
	// TemporalCorr is the AR(1) coefficient across iterations in [0, 1);
	// higher values make expert activations stickier.
	TemporalCorr float64
	// BaseSpread is the standard deviation of per-expert long-run
	// preferences; it controls how uneven the activation CDF is.
	BaseSpread float64
	// NoiseStd is the stationary standard deviation of the latent state
	// around its base preference.
	NoiseStd float64
	// TokenNoise is the extra per-token logit noise in prefill, which
	// spreads a batch across many experts with uneven loads.
	TokenNoise float64
	// PredNoise is the score-prediction noise per layer of lookahead,
	// modelling gate-reuse prediction error for the prefetcher.
	PredNoise float64
	// Seed makes the whole process reproducible.
	Seed uint64
}

// DefaultOptions returns the calibrated parameters used by the paper
// reproduction experiments.
func DefaultOptions(seed uint64) Options {
	return Options{
		// Calibrated so the rank-0 reuse probability lands near the
		// paper's ~0.30 (Fig. 3b) with a decreasing tail.
		TemporalCorr: 0.42,
		BaseSpread:   0.22,
		NoiseStd:     1.0,
		TokenNoise:   1.3,
		PredNoise:    0.45,
		Seed:         seed,
	}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions(o.Seed)
	if o.TemporalCorr == 0 {
		o.TemporalCorr = d.TemporalCorr
	}
	if o.BaseSpread == 0 {
		o.BaseSpread = d.BaseSpread
	}
	if o.NoiseStd == 0 {
		o.NoiseStd = d.NoiseStd
	}
	if o.TokenNoise == 0 {
		o.TokenNoise = d.TokenNoise
	}
	if o.PredNoise == 0 {
		o.PredNoise = d.PredNoise
	}
}

// Generator produces routing scores and activations for one simulated
// request stream over a model configuration.
type Generator struct {
	cfg  *moe.Config
	opts Options
	rng  *stats.RNG
	// base[l][e]: long-run preference of expert e at layer l.
	base [][]float64
	// latent[l][e]: current latent logit.
	latent [][]float64
	iter   int
	// predRNG is the reusable prediction stream: PredictedScoresInto
	// reseeds it per (iter, layer, lookahead) instead of allocating a
	// fresh generator on the routing hot path. Reseed restores the
	// exact NewRNG state, so draws are byte-identical.
	predRNG stats.RNG
	// row and top are the top-k selection scratch of DecodeStepInto,
	// Activated and PrefillLoads (once per token): the float32 ranking
	// row and the selected indices, both consumed before the next
	// selection.
	row []float32
	top []int
	// us and vs hold the uniform pairs of the latest batch draw and z
	// the variates of the latest norms call, each reused across calls.
	us, vs, z []float64
	// draw is the pruned prefill routing draw's scratch (prefill.go).
	draw prefillDraw
}

// New builds a generator for cfg. It panics on an invalid configuration;
// validate configs at construction time.
func New(cfg *moe.Config, opts Options) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("trace: %v", err))
	}
	opts.fillDefaults()
	g := &Generator{cfg: cfg, opts: opts, rng: stats.NewRNG(opts.Seed)}
	g.base = make([][]float64, cfg.Layers)
	g.latent = make([][]float64, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		g.base[l] = make([]float64, cfg.RoutedExperts)
		g.latent[l] = make([]float64, cfg.RoutedExperts)
		// Each expert draws its preference, then its start at the
		// stationary distribution around it.
		z := g.norms(g.rng, 2*cfg.RoutedExperts)
		for e := range g.base[l] {
			g.base[l][e] = 0 + opts.BaseSpread*z[2*e]
			g.latent[l][e] = g.base[l][e] + (0 + opts.NoiseStd*z[2*e+1])
		}
	}
	return g
}

// Config reports the model configuration the generator serves.
func (g *Generator) Config() *moe.Config { return g.cfg }

// ForkHistory returns a generator over the same model with the same
// long-run expert preferences but an independent iteration stream —
// "the same workload at an earlier time". Frameworks use it to collect
// the historical activation frequencies their static placements and
// cache warm-ups rely on, without leaking the serving trace's future.
func (g *Generator) ForkHistory(seed uint64) *Generator {
	h := &Generator{cfg: g.cfg, opts: g.opts, rng: stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)}
	h.opts.Seed = seed
	h.base = make([][]float64, g.cfg.Layers)
	h.latent = make([][]float64, g.cfg.Layers)
	for l := range g.base {
		h.base[l] = append([]float64(nil), g.base[l]...)
		h.latent[l] = make([]float64, len(g.latent[l]))
		z := h.norms(h.rng, len(h.latent[l]))
		for e := range h.latent[l] {
			h.latent[l][e] = h.base[l][e] + (0 + h.opts.NoiseStd*z[e])
		}
	}
	return h
}

// Iteration reports how many Advance calls have occurred.
func (g *Generator) Iteration() int { return g.iter }

// Advance moves every layer's latent state one decode iteration forward
// with the mean-reverting AR(1) update, preserving the stationary
// variance NoiseStd².
func (g *Generator) Advance() {
	rho := g.opts.TemporalCorr
	innov := g.opts.NoiseStd * math.Sqrt(1-rho*rho)
	for l, lat := range g.latent {
		z := g.norms(g.rng, len(lat))
		for e, b := range g.base[l] {
			lat[e] = b + rho*(lat[e]-b) + (0 + innov*z[e])
		}
	}
	g.iter++
}

// norms returns the next n ≥ 1 standard normals of r, bit for bit what
// n successive r.Norm calls return, and leaves r as they would; the
// slice is scratch, valid until the next call. It pairs as Norm does: a
// variate r holds cached comes first, each uniform pair of one batch
// draw then gives an entry its cosine half and the next its sine half,
// and a pair opened by the last entry leaves its sine half cached.
// Callers add NormMeanStd's arithmetic, mean + (0 + std·z).
func (g *Generator) norms(r *stats.RNG, n int) []float64 {
	if cap(g.z) < n {
		g.z = make([]float64, n)
	}
	z := g.z[:n]
	e := 0
	if c, ok := r.TakeCached(); ok {
		z[0], e = c, 1
	}
	us, vs := g.uniformPairs(r, (n-e+1)/2)
	for p, u := range us {
		c, s := stats.BoxMuller(u, vs[p])
		z[e] = c
		if e+1 < n {
			z[e+1] = s
		} else {
			r.PutCached(s)
		}
		e += 2
	}
	return z
}

// uniformPairs draws the next n uniform pairs of r in one batch into
// the generator's scratch, valid until the next draw.
func (g *Generator) uniformPairs(r *stats.RNG, n int) (us, vs []float64) {
	if cap(g.us) < n {
		g.us, g.vs = make([]float64, n), make([]float64, n)
	}
	us, vs = g.us[:n], g.vs[:n]
	r.UniformPairs(us, vs)
	return us, vs
}

// Scores returns the current softmax-normalised routing scores of a
// layer — the full distribution the MRS cache consumes.
func (g *Generator) Scores(layer int) []float64 {
	g.checkLayer(layer)
	return softmax64(g.latent[layer])
}

// Activated returns the current top-k experts of a layer in descending
// score order (a decode iteration's activation set).
func (g *Generator) Activated(layer int) []int {
	return append([]int(nil), g.activatedFrom(g.Scores(layer))...)
}

// PredictedScores returns a prediction of layer's scores as seen from
// lookahead layers earlier, i.e. what reusing the current hidden state
// with that layer's gate would produce. Prediction noise grows linearly
// with lookahead. The prediction is stable: repeated calls within the
// same iteration return the same value. lookahead 0 returns the true
// scores.
func (g *Generator) PredictedScores(layer, lookahead int) []float64 {
	return g.PredictedScoresInto(nil, layer, lookahead)
}

// PredictedScoresInto is PredictedScores writing into dst's backing
// array (grown as needed) — same values, same draw order, no per-call
// allocation once dst has capacity. Fleet routers probe every replica's
// predicted residency per dispatch, so this is a routing hot path.
func (g *Generator) PredictedScoresInto(dst []float64, layer, lookahead int) []float64 {
	g.checkLayer(layer)
	if lookahead < 0 {
		panic(fmt.Sprintf("trace: negative lookahead %d", lookahead))
	}
	if lookahead == 0 {
		return softmax64Into(dst, g.latent[layer])
	}
	// Derive a deterministic stream from (seed, iter, layer, lookahead)
	// so predictions are stable within an iteration.
	h := g.opts.Seed
	h = h*0x100000001b3 ^ uint64(g.iter+1)
	h = h*0x100000001b3 ^ uint64(layer+1)
	h = h*0x100000001b3 ^ uint64(lookahead)
	g.predRNG.Reseed(h)
	z := g.norms(&g.predRNG, len(g.latent[layer]))
	noisy := append(dst[:0], g.latent[layer]...)
	sigma := g.opts.PredNoise * float64(lookahead)
	for e := range noisy {
		noisy[e] += 0 + sigma*z[e]
	}
	softmax64InPlace(noisy)
	return noisy
}

// PrefillLoads simulates routing `tokens` tokens through a layer in one
// prefill forward: each token adds per-token noise to the layer latent
// and selects its own top-k. The result maps expert index to token
// count; entries sum to tokens × ActivatedExperts.
func (g *Generator) PrefillLoads(layer, tokens int) []int {
	return g.prefillLoadsInto(nil, layer, tokens)
}

// prefillLoadsInto is PrefillLoads writing into dst's backing array.
// Each token's row is float32(latent[e] + NormMeanStd(0, TokenNoise))
// over the experts, drawn in expert order; tokenTopK selects its top-k
// while computing exact values only where they can reach it.
func (g *Generator) prefillLoadsInto(dst []int, layer, tokens int) []int {
	g.checkLayer(layer)
	if tokens <= 0 {
		panic(fmt.Sprintf("trace: non-positive token count %d", tokens))
	}
	loads := zeroLoads(dst, g.cfg.RoutedExperts)
	d := &g.draw
	d.begin(g.latent[layer], g.opts.TokenNoise, g.cfg.ActivatedExperts)
	for t := 0; t < tokens; t++ {
		for _, e := range g.tokenTopK(d) {
			loads[e]++
		}
	}
	return loads
}

// rankRow returns the reused float32 ranking row, n entries long.
func (g *Generator) rankRow(n int) []float32 {
	if cap(g.row) < n {
		g.row = make([]float32, n)
	}
	return g.row[:n]
}

// activatedFrom is Activated over already-computed scores, selecting
// into the generator's scratch: the same indices in the same order,
// valid until the next selection.
func (g *Generator) activatedFrom(scores []float64) []int {
	row := g.rankRow(len(scores))
	for i, v := range scores {
		row[i] = float32(v)
	}
	g.top = tensor.TopKInto(g.top, row, g.cfg.ActivatedExperts)
	return g.top
}

func (g *Generator) checkLayer(layer int) {
	if layer < 0 || layer >= g.cfg.Layers {
		panic(fmt.Sprintf("trace: layer %d out of range [0,%d)", layer, g.cfg.Layers))
	}
}

func softmax64(xs []float64) []float64 {
	return softmax64Into(nil, xs)
}

// softmax64Into writes the softmax of xs into dst's backing array
// (grown as needed) and returns it.
func softmax64Into(dst, xs []float64) []float64 {
	dst = append(dst[:0], xs...)
	softmax64InPlace(dst)
	return dst
}

func softmax64InPlace(xs []float64) {
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range xs {
		e := math.Exp(v - max)
		xs[i] = e
		sum += e
	}
	for i := range xs {
		xs[i] /= sum
	}
}

func topKIndices(scores []float64, k int) []int {
	f32 := make([]float32, len(scores))
	for i, v := range scores {
		f32[i] = float32(v)
	}
	return tensor.TopK(f32, k)
}
