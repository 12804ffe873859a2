package stats

import (
	"testing"
	"testing/quick"
)

func TestFrequencyCDFUniformVsSkewed(t *testing.T) {
	uniform := []int64{10, 10, 10, 10}
	skewed := []int64{97, 1, 1, 1}
	u := FrequencyCDF(uniform)
	s := FrequencyCDF(skewed)
	if u[0] != 0.25 {
		t.Errorf("uniform first share = %v, want 0.25", u[0])
	}
	if s[0] != 0.97 {
		t.Errorf("skewed first share = %v, want 0.97", s[0])
	}
	if u[3] != 1 || s[3] != 1 {
		t.Errorf("CDFs must end at 1: %v %v", u[3], s[3])
	}
}

func TestFrequencyCDFEmptyAndZero(t *testing.T) {
	if got := FrequencyCDF(nil); len(got) != 0 {
		t.Errorf("empty input should yield empty output, got %v", got)
	}
	got := FrequencyCDF([]int64{0, 0})
	for _, v := range got {
		if v != 0 {
			t.Errorf("all-zero counts should yield zero shares, got %v", got)
		}
	}
}

// Property: FrequencyCDF is non-decreasing and bounded by [0,1].
func TestFrequencyCDFMonotoneQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		counts := make([]int64, len(raw))
		for i, v := range raw {
			counts[i] = int64(v)
		}
		cdf := FrequencyCDF(counts)
		prev := 0.0
		for _, v := range cdf {
			if v < prev-1e-12 || v < 0 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGiniCoefficient(t *testing.T) {
	if g := GiniCoefficient([]int64{5, 5, 5, 5}); !almostEq(g, 0, 1e-12) {
		t.Errorf("gini of even distribution = %v, want 0", g)
	}
	gSkew := GiniCoefficient([]int64{100, 0, 0, 0})
	gEven := GiniCoefficient([]int64{30, 25, 25, 20})
	if gSkew <= gEven {
		t.Errorf("skewed gini %v should exceed even gini %v", gSkew, gEven)
	}
	if g := GiniCoefficient(nil); g != 0 {
		t.Errorf("gini of empty = %v, want 0", g)
	}
	if g := GiniCoefficient([]int64{0, 0}); g != 0 {
		t.Errorf("gini of zeros = %v, want 0", g)
	}
}
