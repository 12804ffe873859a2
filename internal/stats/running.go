// Package stats provides small statistical utilities used throughout the
// HybriMoE reproduction: online moment accumulators, frequency CDFs and
// skew, least-squares fits, correlation and a seeded random generator.
//
// The package is dependency-free and deterministic; every consumer that
// needs randomness supplies its own seeded source.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates count, mean and variance of a stream of float64
// observations using Welford's online algorithm. The zero value is ready
// to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddN folds every value in xs into the accumulator.
func (r *Running) AddN(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N reports the number of observations seen so far.
func (r *Running) N() int64 { return r.n }

// Mean reports the arithmetic mean of the observations, or 0 when empty.
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest observation, or 0 when empty.
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation, or 0 when empty.
func (r *Running) Max() float64 { return r.max }

// Variance reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Sum reports mean*n, the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// String renders a compact human-readable summary.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	mean := r.mean + delta*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}
