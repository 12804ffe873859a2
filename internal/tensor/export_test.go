package tensor

// TopKBuckets exposes TopKSetInto's bucket kernel, which takes rows of
// every length, to the external benchmarks.
func TopKBuckets(dst []int, xs []float64, k int) []int { return topKBuckets(dst, xs, k) }
