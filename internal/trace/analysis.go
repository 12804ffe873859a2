package trace

import (
	"fmt"

	"hybrimoe/internal/stats"
)

// ActivationCounts runs the generator for iters decode iterations and
// returns per-expert activation counts summed over all layers, the raw
// material of the Figure 3(a) CDF. The generator is advanced in place.
func ActivationCounts(g *Generator, iters int) []int64 {
	counts := make([]int64, g.cfg.RoutedExperts*g.cfg.Layers)
	for i := 0; i < iters; i++ {
		g.Advance()
		for l := 0; l < g.cfg.Layers; l++ {
			for _, e := range g.Activated(l) {
				counts[l*g.cfg.RoutedExperts+e]++
			}
		}
	}
	return counts
}

// NeuronActivationCounts simulates the highly skewed neuron-level
// sparsity of a ReLU dense model (the paper's OPT reference in
// Fig. 3a): each of iters steps activates activePerStep neurons drawn
// from a Zipf distribution over n neurons.
func NeuronActivationCounts(n, iters, activePerStep int, zipfS float64, seed uint64) []int64 {
	if n <= 0 || iters <= 0 || activePerStep <= 0 {
		panic(fmt.Sprintf("trace: invalid neuron sim n=%d iters=%d k=%d", n, iters, activePerStep))
	}
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(n, zipfS)
	counts := make([]int64, n)
	for i := 0; i < iters; i++ {
		for j := 0; j < activePerStep; j++ {
			counts[zipf.Sample(rng)]++
		}
	}
	return counts
}

// ReuseByRank measures, over iters iterations of g, the probability that
// the expert holding score rank r at iteration t is activated at t+1 —
// the paper's Figure 3(b). Rank 0 is the highest score. Results are
// averaged over all layers.
func ReuseByRank(g *Generator, iters int) []float64 {
	n := g.cfg.RoutedExperts
	hits := make([]int64, n)
	trials := make([]int64, n)
	// rankOf[l][e] from the previous iteration.
	prevRank := make([][]int, g.cfg.Layers)

	g.Advance()
	for l := 0; l < g.cfg.Layers; l++ {
		prevRank[l] = scoreRanks(g.Scores(l))
	}
	for i := 0; i < iters; i++ {
		g.Advance()
		for l := 0; l < g.cfg.Layers; l++ {
			active := make(map[int]bool, g.cfg.ActivatedExperts)
			for _, e := range g.Activated(l) {
				active[e] = true
			}
			for e, r := range prevRank[l] {
				trials[r]++
				if active[e] {
					hits[r]++
				}
			}
			prevRank[l] = scoreRanks(g.Scores(l))
		}
	}
	out := make([]float64, n)
	for r := range out {
		if trials[r] > 0 {
			out[r] = float64(hits[r]) / float64(trials[r])
		}
	}
	return out
}

// scoreRanks maps expert index -> descending-score rank (0 = top).
func scoreRanks(scores []float64) []int {
	idx := topKIndices(scores, len(scores))
	ranks := make([]int, len(scores))
	for r, e := range idx {
		ranks[e] = r
	}
	return ranks
}

// InterLayerPredictionAccuracy measures how often the predicted top-k at
// a given lookahead matches the true top-k (mean Jaccard overlap over
// iters iterations and all feasible layers). It quantifies the signal
// quality the prefetcher works with.
func InterLayerPredictionAccuracy(g *Generator, lookahead, iters int) float64 {
	var acc stats.Running
	for i := 0; i < iters; i++ {
		g.Advance()
		for l := 0; l < g.cfg.Layers; l++ {
			truth := g.Activated(l)
			pred := topKIndices(g.PredictedScores(l, lookahead), g.cfg.ActivatedExperts)
			acc.Add(jaccard(truth, pred))
		}
	}
	return acc.Mean()
}

func jaccard(a, b []int) float64 {
	set := make(map[int]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	var inter int
	for _, v := range b {
		if set[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// LayerActivation is one layer's worth of routing for an engine step.
type LayerActivation struct {
	Layer ExpertLayer
	// Loads maps expert index -> token count; zero entries are inactive.
	Loads []int
	// Scores is the full routing score distribution (cache signal).
	Scores []float64
}

// ExpertLayer aliases the layer index for readability in engine code.
type ExpertLayer = int

// DecodeStep advances the generator one iteration and returns each
// layer's activation with unit loads (one token per activated expert).
func DecodeStep(g *Generator) []LayerActivation { return DecodeStepInto(nil, g) }

// DecodeStepInto is DecodeStep writing into dst's activations — the
// slice and every layer's Loads and Scores backing arrays, grown as
// needed — for callers that consume one step before taking the next.
// The result aliases dst.
func DecodeStepInto(dst []LayerActivation, g *Generator) []LayerActivation {
	g.Advance()
	out := layerActivations(dst, g.cfg.Layers)
	for l := range out {
		a := &out[l]
		a.Layer = l
		a.Scores = softmax64Into(a.Scores, g.latent[l])
		a.Loads = zeroLoads(a.Loads, g.cfg.RoutedExperts)
		for _, e := range g.activatedFrom(a.Scores) {
			a.Loads[e] = 1
		}
	}
	return out
}

// layerActivations returns dst resized to n layers, reusing its entries'
// buffers where it has them.
func layerActivations(dst []LayerActivation, n int) []LayerActivation {
	if cap(dst) < n {
		dst = append(dst[:cap(dst)], make([]LayerActivation, n-cap(dst))...)
	}
	return dst[:n]
}

// zeroLoads returns loads resized to n entries, all zero.
func zeroLoads(loads []int, n int) []int {
	if cap(loads) < n {
		return make([]int, n)
	}
	loads = loads[:n]
	clear(loads)
	return loads
}

// BatchDecodeStep advances the generator one iteration and returns each
// layer's activation for a continuously-batched decode iteration over
// batch concurrent requests. The requests share the iteration's single
// activation pass — the generator models one latent routing stream, so
// the batch's union of experts is this pass's top-k set — and every
// activated expert serves one token per batched request: loads are the
// unit decode loads scaled by the batch size, summing to
// batch × ActivatedExperts per layer, which keeps per-token cache
// lookup counts conserved against the equivalent unbatched run.
// batch 1 is exactly DecodeStep.
func BatchDecodeStep(g *Generator, batch int) []LayerActivation {
	return BatchDecodeStepInto(nil, g, batch)
}

// BatchDecodeStepInto is BatchDecodeStep writing into dst's activations,
// as DecodeStepInto does.
func BatchDecodeStepInto(dst []LayerActivation, g *Generator, batch int) []LayerActivation {
	if batch < 1 {
		panic(fmt.Sprintf("trace: non-positive decode batch %d", batch))
	}
	out := DecodeStepInto(dst, g)
	if batch == 1 {
		return out
	}
	for i := range out {
		for e, l := range out[i].Loads {
			if l > 0 {
				out[i].Loads[e] = l * batch
			}
		}
	}
	return out
}

// PrefillStep advances the generator one iteration and returns each
// layer's activation for a prefill forward over the given token count.
func PrefillStep(g *Generator, tokens int) []LayerActivation {
	return PrefillStepInto(nil, g, tokens)
}

// PrefillStepInto is PrefillStep writing into dst's activations, as
// DecodeStepInto does.
func PrefillStepInto(dst []LayerActivation, g *Generator, tokens int) []LayerActivation {
	g.Advance()
	out := layerActivations(dst, g.cfg.Layers)
	for l := range out {
		a := &out[l]
		a.Layer = l
		a.Loads = g.prefillLoadsInto(a.Loads, l, tokens)
		a.Scores = softmax64Into(a.Scores, g.latent[l])
	}
	return out
}

// TotalLoad sums the token loads.
func (a LayerActivation) TotalLoad() int {
	var sum int
	for _, l := range a.Loads {
		sum += l
	}
	return sum
}
