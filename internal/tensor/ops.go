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
		for j > 0 && xs[dst[j-1]] < v {
			j--
		}
		copy(dst[j+1:n+1], dst[j:n])
		dst[j] = i
	}
	return dst
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

// ArgMax returns the index of the largest element (first on ties).
// Panics on empty input.
func ArgMax(xs []float32) int {
	if len(xs) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
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
