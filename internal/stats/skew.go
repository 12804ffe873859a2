package stats

import "sort"

// FrequencyCDF computes the cumulative-share curve used by the paper's
// Figure 3(a): given per-item activation counts, it sorts items by
// descending frequency and returns, for each prefix of items, the
// cumulative fraction of all activations they account for. The returned
// slice has one entry per item; entry i is the share covered by the
// (i+1) most-active items.
//
// A strongly skewed process (neuron sparsity) saturates quickly; MoE
// expert activations rise much more gradually.
func FrequencyCDF(counts []int64) []float64 {
	sorted := make([]int64, len(counts))
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total int64
	for _, c := range sorted {
		total += c
	}
	out := make([]float64, len(sorted))
	var cum int64
	for i, c := range sorted {
		cum += c
		if total > 0 {
			out[i] = float64(cum) / float64(total)
		}
	}
	return out
}

// GiniCoefficient summarises the skew of a frequency distribution in
// [0, 1]: 0 is perfectly even, 1 maximally concentrated. Used by tests to
// assert that the synthetic neuron process is more skewed than the expert
// process, matching Figure 3(a).
func GiniCoefficient(counts []int64) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	for i, c := range counts {
		sorted[i] = float64(c)
	}
	sort.Float64s(sorted)
	var cum, weighted float64
	for i, v := range sorted {
		cum += v
		weighted += float64(i+1) * v
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
