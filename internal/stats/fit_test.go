package stats

import (
	"math"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2.5*v + 1.25
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2.5, 1e-12) || !almostEq(fit.Intercept, 1.25, 1e-12) {
		t.Fatalf("fit = %v, want slope 2.5 intercept 1.25", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("R² = %v, want 1", fit.R2)
	}
	if got := fit.Predict(10); !almostEq(got, 26.25, 1e-12) {
		t.Fatalf("predict(10) = %v, want 26.25", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := NewRNG(99)
	var x, y []float64
	for i := 0; i < 400; i++ {
		xi := rng.Float64() * 100
		x = append(x, xi)
		y = append(y, 3*xi+7+rng.NormMeanStd(0, 0.5))
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 0.05 {
		t.Errorf("slope = %v, want ≈3", fit.Slope)
	}
	if math.Abs(fit.Intercept-7) > 0.5 {
		t.Errorf("intercept = %v, want ≈7", fit.Intercept)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R² = %v, want >0.99", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("fit with one point should error")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 0, 1e-12) || !almostEq(fit.Intercept, 5, 1e-12) {
		t.Fatalf("constant-y fit = %v", fit)
	}
	if fit.R2 != 1 {
		t.Fatalf("constant-y R² = %v, want 1 by convention", fit.R2)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := PearsonCorrelation(x, []float64{2, 4, 6, 8}); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := PearsonCorrelation(x, []float64{8, 6, 4, 2}); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if got := PearsonCorrelation(x, []float64{1, 1, 1, 1}); !math.IsNaN(got) {
		t.Errorf("correlation with constant should be NaN, got %v", got)
	}
	if got := PearsonCorrelation(x, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("length mismatch should be NaN, got %v", got)
	}
}
