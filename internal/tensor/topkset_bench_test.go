package tensor_test

import (
	"fmt"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/tensor"
	"hybrimoe/internal/trace"
)

// BenchmarkTopKSetRows times TopKSetInto's bucket kernel ("buckets")
// and TopKInto ("ranked") on the rows MRS selects from: 8 recorded
// decode steps over every layer, at p = 2·k (the registered MRS
// policy's), for 8 (Mixtral), 16, 32 and 64 (DeepSeek) experts.
// topKSetMinLen, the row length from which TopKSetInto buckets, is
// chosen from it.
func BenchmarkTopKSetRows(b *testing.B) {
	shape := func(experts, k int) *moe.Config {
		return &moe.Config{Name: fmt.Sprintf("E%d", experts), Layers: 26, RoutedExperts: experts,
			ActivatedExperts: k, Hidden: 1, Intermediate: 1}
	}
	for _, cfg := range []*moe.Config{moe.Mixtral(), shape(16, 2), shape(32, 4), moe.DeepSeek()} {
		g := trace.New(cfg, trace.DefaultOptions(4))
		var rows [][]float64
		for s := 0; s < 8; s++ {
			for _, a := range trace.DecodeStepInto(nil, g) {
				rows = append(rows, a.Scores)
			}
		}
		p := 2 * cfg.ActivatedExperts
		for _, sel := range []struct {
			name string
			fn   func(dst []int, xs []float64, k int) []int
		}{
			{"buckets", tensor.TopKBuckets},
			{"ranked", tensor.TopKInto[float64]},
		} {
			b.Run(fmt.Sprintf("E=%d/p=%d/%s", cfg.RoutedExperts, p, sel.name), func(b *testing.B) {
				var dst []int
				for _, row := range rows {
					dst = sel.fn(dst, row, p)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = sel.fn(dst, rows[i%len(rows)], p)
				}
			})
		}
	}
}
