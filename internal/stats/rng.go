package stats

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 seeded
// xoshiro256**). Every stochastic component in the reproduction takes an
// explicit *RNG so experiments are exactly repeatable and goroutine-local
// generators need no locking.
type RNG struct {
	s [4]uint64
	// Cached second normal variate from the Box-Muller transform.
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to the exact state NewRNG(seed) returns — same lanes,
// no cached Box-Muller variate — so a long-lived generator can be
// re-aimed at a derived stream without allocating a fresh one on a hot
// path.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 expansion of the seed into four lanes.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	r.gauss, r.hasGauss = 0, false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is one xoshiro256** step from the state (s0, s1, s2, s3): it
// returns the step's 64 output bits and the next state. Uint64 and
// UniformPairs both step through it, so a batch draws Uint64's stream.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// unit maps 64 random bits to a multiple of 2⁻⁵³ in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	var out uint64
	out, s[0], s[1], s[2], s[3] = xoshiro(s[0], s[1], s[2], s[3])
	return out
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// Intn returns a uniform sample in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box-Muller). Each uniform
// pair yields two variates: Norm returns the cosine half and caches
// the sine half for the next call. A caller that skips the
// transcendental work for variates it can bound (trace's prefill
// routing draw) replays exactly this sequence through TakeCached,
// UniformPair, BoxMuller (or its radius and angle) and PutCached.
func (r *RNG) Norm() float64 {
	if z, ok := r.TakeCached(); ok {
		return z
	}
	c, s := BoxMuller(r.UniformPair())
	r.PutCached(s)
	return c
}

// BoxMuller maps a uniform pair from UniformPair to its two standard
// normal variates: the radius BoxMullerRadius(u) times the cosine and
// the sine of the angle BoxMullerAngle(v). Norm returns c and caches s.
// Sincos shares one argument reduction between the halves and returns
// the bits of Sin and Cos for the non-negative angles here.
func BoxMuller(u, v float64) (c, s float64) {
	mag := BoxMullerRadius(u)
	sin, cos := math.Sincos(BoxMullerAngle(v))
	return mag * cos, mag * sin
}

// UniformPair draws the uniform pair behind one Box-Muller pair, in
// Norm's order: u, redrawn while it is 0, then v. u is a positive
// multiple of 2⁻⁵³ below 1, and v a non-negative one.
func (r *RNG) UniformPair() (u, v float64) {
	for u == 0 {
		u = r.Float64()
	}
	return u, r.Float64()
}

// UniformPairs fills us[i] and vs[i] with the pairs that len(us)
// successive UniformPair calls would return, zero u redraws included,
// and leaves r where those calls would; it panics when vs is shorter
// than us. The state stays in locals across the loop, so a batch makes
// no call per draw.
func (r *RNG) UniformPairs(us, vs []float64) {
	vs = vs[:len(us)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range us {
		var x uint64
		for x>>11 == 0 { // unit(x) == 0: redraw u
			x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		}
		us[i] = unit(x)
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		vs[i] = unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// TakeCached removes and returns the cached second variate of the last
// Box-Muller pair, if r holds one; the next Norm call would return it.
func (r *RNG) TakeCached() (z float64, ok bool) {
	if !r.hasGauss {
		return 0, false
	}
	r.hasGauss = false
	return r.gauss, true
}

// PutCached makes z the cached variate the next Norm call returns.
func (r *RNG) PutCached(z float64) {
	r.gauss, r.hasGauss = z, true
}

// BoxMullerRadius is the radius sqrt(-2 ln u) of a Box-Muller pair
// drawn from UniformPair's u.
func BoxMullerRadius(u float64) float64 { return math.Sqrt(-2 * math.Log(u)) }

// BoxMullerAngle is the angle 2πv of a Box-Muller pair drawn from
// UniformPair's v; the pair's variates are the radius times its cosine
// (first) and sine (cached).
func BoxMullerAngle(v float64) float64 { return 2 * math.Pi * v }

// NormMeanStd returns a normal sample with the given mean and standard
// deviation.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Zipf samples from a fixed Zipf-like distribution over [0, n) with
// exponent s via binary search on a precomputed CDF. It is used by the
// neuron-sparsity reference process (highly skewed activations).
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the sampling table. It panics on non-positive n.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	z := &Zipf{cdf: make([]float64, n)}
	var cum float64
	for i := 1; i <= n; i++ {
		cum += 1 / math.Pow(float64(i), s)
		z.cdf[i-1] = cum
	}
	total := z.cdf[n-1]
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

// Sample draws one value in [0, n) using r.
func (z *Zipf) Sample(r *RNG) int {
	target := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
