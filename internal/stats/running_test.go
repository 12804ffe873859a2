package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatalf("zero-value Running should report zeros, got %v", r.String())
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.N() != 1 || r.Mean() != 42 || r.Variance() != 0 {
		t.Fatalf("single observation: %v", r.String())
	}
	if r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("min/max after single add: %v", r.String())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	r.AddN([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := r.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if got, want := r.Variance(), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("variance = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if got := r.Sum(); !almostEq(got, 40, 1e-12) {
		t.Errorf("sum = %v, want 40", got)
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormMeanStd(3, 11)
	}
	var whole Running
	whole.AddN(xs)
	var a, b Running
	a.AddN(xs[:123])
	b.AddN(xs[123:])
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged n=%d, want %d", a.N(), whole.N())
	}
	if !almostEq(a.Mean(), whole.Mean(), 1e-10) {
		t.Errorf("merged mean %v vs %v", a.Mean(), whole.Mean())
	}
	if !almostEq(a.Variance(), whole.Variance(), 1e-10) {
		t.Errorf("merged variance %v vs %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max %v/%v vs %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestRunningMergeIntoEmpty(t *testing.T) {
	var a, b Running
	b.AddN([]float64{1, 2, 3})
	a.Merge(&b)
	if a.N() != 3 || a.Mean() != 2 {
		t.Fatalf("merge into empty: %v", a.String())
	}
	var c Running
	a.Merge(&c) // merging empty is a no-op
	if a.N() != 3 {
		t.Fatalf("merge of empty changed state: %v", a.String())
	}
}

// Property: variance is never negative and mean stays within [min, max].
func TestRunningInvariantsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		n := 0
		for _, x := range xs {
			// Skip non-finite and astronomically large inputs whose
			// squared deltas overflow float64; they are outside the
			// accumulator's supported domain.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			r.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		return r.Variance() >= 0 && r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
