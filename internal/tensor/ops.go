package tensor

import (
	"fmt"
	"math"
	"sort"
)

func sqrt(v float64) float64 { return math.Sqrt(v) }

// Softmax writes the softmax of src into dst (may alias src). It is
// numerically stabilised by max subtraction. Panics on length mismatch or
// empty input.
func Softmax(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Softmax length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		panic("tensor: Softmax of empty slice")
	}
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - max))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// TopK returns the indices of the k largest values of xs in descending
// value order. Ties break toward the lower index, matching the stable
// behaviour of framework top-k kernels. Panics if k is out of (0, len].
func TopK(xs []float32, k int) []int {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("tensor: TopK k=%d with %d values", k, len(xs)))
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:k]
}

// TopKInto is TopK writing into dst's backing array (grown as needed):
// the same indices in the same order — descending value, ties broken by
// ascending index, exactly the stable argsort — so hot paths probing
// small k over large vectors pay no per-call allocation. One pass keeps
// dst sorted: a value enters only if it beats the current k-th strictly
// (an equal value with a later index ranks after it), and lands behind
// every kept value it does not exceed. It takes float64 vectors too,
// ranked at full precision (a float32 conversion first can merge
// distinct scores and so flip the tie-break).
func TopKInto[T float32 | float64](dst []int, xs []T, k int) []int {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("tensor: TopKInto k=%d with %d values", k, len(xs)))
	}
	dst = dst[:0]
	for i, v := range xs {
		n := len(dst)
		if n == k {
			if !(v > xs[dst[k-1]]) {
				continue
			}
			n-- // the k-th drops out
		} else {
			dst = append(dst, 0)
		}
		j := n
		for ; j > 0 && xs[dst[j-1]] < v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

// TopKSetInto returns the indices TopKInto(dst, xs, k) selects, in no
// particular order, in dst's backing array: for callers that use only
// which values are in the top k. A row shorter than topKSetMinLen goes
// to TopKInto, whose one insertion pass costs less there, and a longer
// one to topKBuckets, which grows dst to 2·len(xs).
func TopKSetInto[T float32 | float64](dst []int, xs []T, k int) []int {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("tensor: TopKSetInto k=%d with %d values", k, len(xs)))
	}
	if len(xs) < topKSetMinLen {
		return TopKInto(dst, xs, k)
	}
	return topKBuckets(dst, xs, k)
}

// topKSetMinLen is the shortest row TopKSetInto buckets. On recorded
// decode rows (BenchmarkTopKSetRows, 10 rounds of 200 ms on a 2-core
// x86-64 host), the median bucket kernel against TopKInto read 72.8
// against 37.6 ns at 8 experts (p = 4), 75.9 against 65.1 at 16 (p =
// 4), 167.1 against 197.6 at 32 (p = 8) and 413.1 against 832.2 at 64
// (p = 12); the buckets won 0, 0, 6 and 10 of the rounds.
const topKSetMinLen = 32

// topKBuckets is TopKSetInto's kernel, for 0 < k <= len(xs). It
// buckets the values linearly between their least and greatest.
// Rounding is monotone, so a greater value never lands in a lower
// bucket: every value in a bucket above the one holding the k-th
// greatest is in the set, every value below it is out, and only that
// bucket's members are ranked, by TopKInto's rule. A row holding a NaN
// or an infinity, all equal, or spread too narrowly or widely to scale
// in float64, is ranked by TopKInto itself.
func topKBuckets[T float32 | float64](dst []int, xs []T, k int) []int {
	n := len(xs)
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v != v {
			return TopKInto(dst, xs, k)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := float64(hi) - float64(lo)
	scale := float64(n) / span
	if !(span <= math.MaxFloat64 && scale <= math.MaxFloat64) {
		return TopKInto(dst, xs, k)
	}
	// dst[:n] holds each value's bucket, then the set; dst[n:] holds the
	// bucket counts, then the members of the k-th's bucket.
	if cap(dst) < 2*n {
		dst = make([]int, 2*n)
	}
	dst = dst[:2*n]
	count := dst[n:]
	clear(count)
	for i, v := range xs {
		b := min(int((float64(v)-float64(lo))*scale), n-1)
		dst[i] = b
		count[b]++
	}
	cut, above := n-1, 0
	for above+count[cut] < k {
		above += count[cut]
		cut--
	}
	// Each member above the cut is written at or before the entry its
	// bucket is read from, so the set overwrites only consumed buckets.
	in, tied := 0, n
	for i, b := range dst[:n] {
		if b > cut {
			dst[in] = i
			in++
		} else if b == cut {
			dst[tied] = i
			tied++
		}
	}
	// TopKInto's insertion ranks the k-th's bucket, whose members come in
	// index order, into dst[in:k]. (Sharing one helper with TopKInto
	// slowed TopKInto's loop.)
	r := k - in
	top := dst[in:in]
	for _, i := range dst[n:tied] {
		v := xs[i]
		j := len(top)
		if j == r {
			if !(v > xs[top[r-1]]) {
				continue
			}
			j--
		} else {
			top = top[:j+1]
		}
		for ; j > 0 && xs[top[j-1]] < v; j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return dst[:k]
}

// SoftmaxTopK implements the MoE gating combination from Eq. (1) of the
// paper: select the top-k logits, then softmax over only those k values.
// It returns the selected expert indices (descending logit order) and
// their normalised weights.
func SoftmaxTopK(logits []float32, k int) (experts []int, weights []float32) {
	experts = TopK(logits, k)
	sel := make([]float32, k)
	for i, e := range experts {
		sel[i] = logits[e]
	}
	weights = make([]float32, k)
	Softmax(weights, sel)
	return experts, weights
}

// RMSNorm applies root-mean-square layer normalisation with elementwise
// gain: dst[i] = x[i] / rms(x) * gain[i], rms(x) = sqrt(mean(x²) + eps).
func RMSNorm(dst, x, gain []float32, eps float64) {
	if len(dst) != len(x) || len(gain) != len(x) {
		panic(fmt.Sprintf("tensor: RMSNorm length mismatch %d/%d/%d", len(dst), len(x), len(gain)))
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := 1 / math.Sqrt(ss/float64(len(x))+eps)
	for i := range dst {
		dst[i] = float32(float64(x[i]) * inv * float64(gain[i]))
	}
}

// SiLU applies the sigmoid-linear unit x*sigmoid(x) elementwise in place.
// It is the activation used by the gated FFN experts in all three
// evaluated models.
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = float32(float64(v) / (1 + math.Exp(-float64(v))))
	}
}

// GatedFFN computes the SwiGLU expert transform used by Mixtral, Qwen2
// and DeepSeek experts:
//
//	out = Wdown · (SiLU(Wgate·x) ⊙ (Wup·x))
//
// Wgate and Wup are inter×hidden, Wdown is hidden×inter. The function
// allocates and returns the hidden-sized output.
func GatedFFN(wgate, wup, wdown *Matrix, x []float32) []float32 {
	if wgate.Rows != wup.Rows || wgate.Cols != wup.Cols {
		panic("tensor: GatedFFN gate/up shape mismatch")
	}
	if wdown.Cols != wgate.Rows || wdown.Rows != wgate.Cols {
		panic("tensor: GatedFFN down projection shape mismatch")
	}
	inter := wgate.Rows
	g := make([]float32, inter)
	u := make([]float32, inter)
	MatVec(g, wgate, x)
	MatVec(u, wup, x)
	SiLU(g)
	for i := range g {
		g[i] *= u[i]
	}
	out := make([]float32, wdown.Rows)
	MatVec(out, wdown, g)
	return out
}

// CosineSimilarity returns the cosine of the angle between two vectors,
// or 0 when either is zero. The prefetcher's accuracy model is validated
// against the inter-layer hidden-state similarity this measures.
func CosineSimilarity(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: CosineSimilarity length mismatch %d vs %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
