package workload

import (
	"fmt"
	"math"

	"hybrimoe/internal/stats"
)

// ArrivalProcess generates successive inter-arrival gaps for an
// open-loop request stream. A Stream with a process attached
// (WithArrivals) accumulates the gaps into each request's absolute
// Arrival stamp. Implementations may keep state across calls (the
// bursty process tracks its on/off phase); a Stream owns one instance.
type ArrivalProcess interface {
	// Name identifies the process in experiment tables and CLI flags.
	Name() string
	// Gap returns the next inter-arrival gap in seconds (>= 0), drawing
	// any randomness from rng.
	Gap(rng *stats.RNG) float64
}

// Poisson returns the memoryless arrival process with the given mean
// rate in requests per second: gaps are exponential with mean 1/rate,
// the standard open-loop load model serving evaluations replay. It
// panics on a rate that is not positive and finite.
func Poisson(rate float64) ArrivalProcess {
	if !positiveFinite(rate) {
		panic(fmt.Sprintf("workload: Poisson rate %v must be positive and finite", rate))
	}
	return poissonProcess{rate: rate}
}

type poissonProcess struct{ rate float64 }

func (poissonProcess) Name() string { return "poisson" }

func (p poissonProcess) Gap(rng *stats.RNG) float64 { return rng.Exp(p.rate) }

// Uniform returns the evenly spaced arrival process: every gap is
// exactly 1/rate seconds, the zero-variance baseline that isolates
// queueing caused by service-time variation from queueing caused by
// arrival burstiness. It panics on a rate that is not positive and
// finite.
func Uniform(rate float64) ArrivalProcess {
	if !positiveFinite(rate) {
		panic(fmt.Sprintf("workload: Uniform rate %v must be positive and finite", rate))
	}
	return uniformProcess{gap: 1 / rate}
}

type uniformProcess struct{ gap float64 }

func (uniformProcess) Name() string { return "uniform" }

func (u uniformProcess) Gap(*stats.RNG) float64 { return u.gap }

// Bursty returns an on/off Markov-modulated Poisson process: arrivals
// are Poisson at onRate during "on" phases and at offRate during "off"
// phases, with the phase durations themselves exponential around meanOn
// and meanOff seconds. It is the bursty open-loop load shape that makes
// admission control earn its keep — sustained quiet stretches followed
// by arrival clumps far above the long-run mean rate. offRate may be 0
// (a pure on/off process); onRate, meanOn and meanOff must be positive.
// Every parameter must be finite, or the constructor panics.
func Bursty(onRate, offRate, meanOn, meanOff float64) ArrivalProcess {
	if !positiveFinite(onRate) {
		panic(fmt.Sprintf("workload: Bursty on-rate %v must be positive and finite", onRate))
	}
	if offRate != 0 && !positiveFinite(offRate) {
		panic(fmt.Sprintf("workload: Bursty off-rate %v must be non-negative and finite", offRate))
	}
	if !positiveFinite(meanOn) || !positiveFinite(meanOff) {
		panic(fmt.Sprintf("workload: Bursty phase means on=%v off=%v must be positive and finite", meanOn, meanOff))
	}
	return &burstyProcess{onRate: onRate, offRate: offRate, meanOn: meanOn, meanOff: meanOff}
}

type burstyProcess struct {
	onRate, offRate float64
	meanOn, meanOff float64
	on              bool
	left            float64 // time remaining in the current phase
	primed          bool
}

func (*burstyProcess) Name() string { return "bursty" }

// Gap samples the next inter-arrival time across phase boundaries: if
// the candidate exponential gap outlives the current phase, the phase's
// remainder is banked and the draw restarts in the next phase — exact
// for exponential gaps, whose memorylessness makes the restart free.
func (b *burstyProcess) Gap(rng *stats.RNG) float64 {
	if !b.primed {
		b.primed = true
		b.on = true
		b.left = rng.Exp(1 / b.meanOn)
	}
	gap := 0.0
	for {
		rate := b.offRate
		if b.on {
			rate = b.onRate
		}
		d := math.Inf(1)
		if rate > 0 {
			d = rng.Exp(rate)
		}
		if d <= b.left {
			b.left -= d
			return gap + d
		}
		gap += b.left
		b.on = !b.on
		mean := b.meanOff
		if b.on {
			mean = b.meanOn
		}
		b.left = rng.Exp(1 / mean)
	}
}

// NewArrivals resolves an arrival process from its CLI name and a mean
// rate in requests per second: "poisson", "uniform", or "bursty" (an
// on/off process at 2×rate during on phases and silent during off
// phases, equal mean phase lengths of four mean inter-arrival times, so
// its long-run rate matches rate). Unknown names and rates whose
// derived values overflow — rate, 2×rate, 1/rate and 4/rate must all be
// positive and finite — return descriptive errors rather than
// panicking: this is the flag parsing path.
func NewArrivals(name string, rate float64) (ArrivalProcess, error) {
	if !positiveFinite(rate) || !positiveFinite(2*rate) || !positiveFinite(1/rate) || !positiveFinite(4/rate) {
		return nil, fmt.Errorf("workload: arrival rate %v must be positive, with rate, 2×rate, 1/rate and 4/rate finite", rate)
	}
	switch name {
	case "poisson":
		return Poisson(rate), nil
	case "uniform":
		return Uniform(rate), nil
	case "bursty":
		return Bursty(2*rate, 0, 4/rate, 4/rate), nil
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (have bursty, poisson, uniform)", name)
	}
}

// positiveFinite reports whether x is positive and finite (NaN is not).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
