package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of an ordinary least-squares fit y = Slope*x +
// Intercept. R2 is the coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear performs an ordinary least-squares fit of y against x. It
// returns an error when fewer than two points are supplied, the slices
// disagree in length, or all x values coincide.
//
// The hardware calibration phase (internal/hw) uses this to turn measured
// kernel timings into the linear CPU cost model the paper's warm-up phase
// produces.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: fit length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: fit needs at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: fit degenerate, all x equal %v", mx)
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := range x {
			r := y[i] - (slope*x[i] + intercept)
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// String renders the fit compactly.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.6g*x + %.6g (R²=%.4f)", f.Slope, f.Intercept, f.R2)
}

// PearsonCorrelation computes the linear correlation coefficient of two
// equal-length series, or NaN when undefined. Tests use it to assert the
// inter-layer score similarity the prefetcher exploits.
func PearsonCorrelation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
