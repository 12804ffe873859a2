package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"hybrimoe/internal/stats"
)

func TestSoftmaxKnown(t *testing.T) {
	src := []float32{1, 1, 1, 1}
	dst := make([]float32, 4)
	Softmax(dst, src)
	for _, v := range dst {
		if math.Abs(float64(v)-0.25) > 1e-6 {
			t.Fatalf("uniform softmax = %v", dst)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Large logits must not overflow to NaN/Inf.
	src := []float32{1000, 999, 998}
	dst := make([]float32, 3)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", dst)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	if !(dst[0] > dst[1] && dst[1] > dst[2]) {
		t.Fatalf("softmax order broken: %v", dst)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float32{0, math.Ln2} // softmax = [1/3, 2/3]
	Softmax(x, x)
	if math.Abs(float64(x[0])-1.0/3) > 1e-6 || math.Abs(float64(x[1])-2.0/3) > 1e-6 {
		t.Fatalf("in-place softmax = %v", x)
	}
}

// Property: softmax sums to 1 and preserves order.
func TestSoftmaxQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(32)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormMeanStd(0, 5))
		}
		dst := make([]float32, n)
		Softmax(dst, src)
		var sum float64
		for _, v := range dst {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (src[i] > src[j]) != (dst[i] > dst[j]) && src[i] != src[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopK(t *testing.T) {
	xs := []float32{0.1, 0.9, 0.5, 0.7}
	got := TopK(xs, 2)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v, want [1 3]", got)
	}
	all := TopK(xs, 4)
	if all[3] != 0 {
		t.Fatalf("TopK full sort = %v", all)
	}
}

func TestTopKTieStability(t *testing.T) {
	xs := []float32{0.5, 0.5, 0.5}
	got := TopK(xs, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("ties should break toward lower index: %v", got)
	}
}

// TestTopKIntoMatchesTopK property-checks the allocation-free selection
// against the stable argsort over random vectors with deliberate ties,
// at every k, and pins the zero-alloc contract once the scratch exists.
func TestTopKIntoMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst []int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		xs := make([]float32, n)
		for i := range xs {
			// Quantised draws force frequent ties, the stability trap.
			xs[i] = float32(rng.Intn(6)) / 8
		}
		for k := 1; k <= n; k++ {
			want := TopK(xs, k)
			dst = TopKInto(dst, xs, k)
			if !reflect.DeepEqual(dst, want) {
				t.Fatalf("xs=%v k=%d: TopKInto=%v, TopK=%v", xs, k, dst, want)
			}
		}
	}
	xs := []float32{0.1, 0.9, 0.5, 0.7, 0.5}
	dst = TopKInto(dst, xs, 3)
	allocs := testing.AllocsPerRun(100, func() {
		dst = TopKInto(dst, xs, 3)
	})
	if allocs > 0 {
		t.Fatalf("TopKInto allocated %.1f times per call with warm scratch", allocs)
	}
}

// TestTopKIntoFloat64MatchesStableSort checks the float64 instantiation
// against a stable descending argsort at full precision, including
// scores a float32 conversion would merge.
func TestTopKIntoFloat64MatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dst []int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(96)
		xs := make([]float64, n)
		for i := range xs {
			// Quantised draws tie often; the 1e-12 nudges differ only
			// below float32 resolution. Every other trial is continuous,
			// the shape of real routing scores.
			xs[i] = float64(rng.Intn(6))/8 + float64(rng.Intn(2))*1e-12
			if trial%2 == 1 {
				xs[i] = rng.Float64()
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
		for k := 1; k <= n; k++ {
			dst = TopKInto(dst, xs, k)
			if !reflect.DeepEqual(dst, idx[:k]) {
				t.Fatalf("xs=%v k=%d: TopKInto=%v, stable sort=%v", xs, k, dst, idx[:k])
			}
		}
	}
}

func TestTopKIntoPanics(t *testing.T) {
	for _, k := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TopKInto k=%d should panic", k)
				}
			}()
			TopKInto(nil, []float32{1, 2, 3}, k)
		}()
	}
}

func TestTopKPanics(t *testing.T) {
	for _, k := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TopK k=%d should panic", k)
				}
			}()
			TopK([]float32{1, 2, 3}, k)
		}()
	}
}

func TestSoftmaxTopK(t *testing.T) {
	logits := []float32{0, 2, 1, -1}
	experts, weights := SoftmaxTopK(logits, 2)
	if experts[0] != 1 || experts[1] != 2 {
		t.Fatalf("experts = %v, want [1 2]", experts)
	}
	var sum float64
	for _, w := range weights {
		sum += float64(w)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("gate weights sum = %v, want 1", sum)
	}
	if weights[0] <= weights[1] {
		t.Fatalf("higher logit should get higher weight: %v", weights)
	}
}

func TestRMSNorm(t *testing.T) {
	x := []float32{3, 4}
	gain := []float32{1, 1}
	dst := make([]float32, 2)
	RMSNorm(dst, x, gain, 0)
	// rms = sqrt((9+16)/2) = sqrt(12.5)
	rms := math.Sqrt(12.5)
	if math.Abs(float64(dst[0])-3/rms) > 1e-6 || math.Abs(float64(dst[1])-4/rms) > 1e-6 {
		t.Fatalf("RMSNorm = %v", dst)
	}
	// With gain applied.
	gain = []float32{2, 0}
	RMSNorm(dst, x, gain, 0)
	if math.Abs(float64(dst[0])-6/rms) > 1e-6 || dst[1] != 0 {
		t.Fatalf("gained RMSNorm = %v", dst)
	}
}

func TestSiLU(t *testing.T) {
	x := []float32{0, 10, -10}
	SiLU(x)
	if x[0] != 0 {
		t.Errorf("SiLU(0) = %v, want 0", x[0])
	}
	if math.Abs(float64(x[1])-10) > 1e-3 {
		t.Errorf("SiLU(10) = %v, want ≈10", x[1])
	}
	if math.Abs(float64(x[2])) > 1e-3 {
		t.Errorf("SiLU(-10) = %v, want ≈0", x[2])
	}
}

func TestGatedFFNShapeAndZero(t *testing.T) {
	rng := stats.NewRNG(17)
	hidden, inter := 8, 16
	wg := NewMatrix(inter, hidden)
	wu := NewMatrix(inter, hidden)
	wd := NewMatrix(hidden, inter)
	wg.FillRandom(rng)
	wu.FillRandom(rng)
	wd.FillRandom(rng)
	x := make([]float32, hidden)
	out := GatedFFN(wg, wu, wd, x)
	if len(out) != hidden {
		t.Fatalf("GatedFFN output length %d, want %d", len(out), hidden)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("GatedFFN of zero input should be zero, got %v", out)
		}
	}
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	out = GatedFFN(wg, wu, wd, x)
	var nonzero bool
	for _, v := range out {
		if v != 0 {
			nonzero = true
		}
		if math.IsNaN(float64(v)) {
			t.Fatal("GatedFFN produced NaN")
		}
	}
	if !nonzero {
		t.Fatal("GatedFFN of random input should be nonzero")
	}
}

func TestGatedFFNShapePanics(t *testing.T) {
	wg := NewMatrix(4, 8)
	wu := NewMatrix(3, 8)
	wd := NewMatrix(8, 4)
	defer func() {
		if recover() == nil {
			t.Error("gate/up mismatch should panic")
		}
	}()
	GatedFFN(wg, wu, wd, make([]float32, 8))
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float32{2, 2}); got != 0 {
		t.Fatalf("ArgMax ties should prefer first: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ArgMax of empty should panic")
		}
	}()
	ArgMax(nil)
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0}
	if got := CosineSimilarity(a, []float32{2, 0}); math.Abs(got-1) > 1e-9 {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := CosineSimilarity(a, []float32{0, 3}); math.Abs(got) > 1e-9 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarity(a, []float32{-1, 0}); math.Abs(got+1) > 1e-9 {
		t.Errorf("antiparallel cosine = %v, want -1", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}
