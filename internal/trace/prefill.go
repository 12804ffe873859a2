package trace

import (
	"math"

	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

// The prefill routing draw gives every prompt token its own logit row,
// float32(latent[e] + NormMeanStd(0, TokenNoise)) for each expert e,
// and counts the row's top-k. Only top-k membership reaches the loads,
// so tokenTopK consumes every uniform a dense row would, in the same
// order, but runs the Box-Muller transcendentals only for entries whose
// cheap upper bound reaches a per-call threshold τ:
//
//   - A pruned entry's value is at most its bound, which is below τ, so
//     its float32 is at most float32(τ).
//   - When at least k exact values exceed float32(τ), they beat every
//     other entry strictly, and TopKInto over them in index order keeps
//     the dense row's tie-break (descending value, then ascending
//     index).
//   - Otherwise the dense row is rebuilt from the recorded uniforms and
//     ranked in full; that fallback is the only full-row code.
//
// Pairing follows stats.RNG.Norm: a variate cached at the row start is
// entry 0's, each uniform pair then gives an entry its cosine half and
// the next its sine half, and a pair opened by the row's last entry
// leaves its sine half cached, exactly as Norm would.

const (
	// radiusBuckets and angleBuckets are powers of two, so u·radiusBuckets
	// and v·angleBuckets are exact for UniformPair's multiples of 2⁻⁵³.
	radiusBuckets = 4096
	angleBuckets  = 256
	// boundSlack absorbs the rounding of the computed radius, angle and
	// trigonometric values, which lie within a few ulps of the exact ones.
	boundSlack = 1e-9
	// The normal tail is tabulated at tailSteps points per unit over
	// z ∈ [-tailZ, tailZ].
	tailZ     = 8
	tailSteps = 64
	// thresholdSteps bisections place τ so that about thresholdTarget·k
	// entries of a row are expected to exceed it.
	thresholdSteps  = 10
	thresholdTarget = 1.6
)

// drawBounds holds the package-wide tables behind the pruned draw.
type drawBounds struct {
	// radius[i] bounds BoxMullerRadius(u) for u in [i, i+1)/radiusBuckets.
	// It must stay finite: a zero trigonometric bound times +Inf is NaN,
	// and a NaN bound fails the comparison that keeps an entry.
	radius [radiusBuckets]float64
	// trig[j] bounds the cosine and the sine of BoxMullerAngle(v) for v
	// in [j, j+1)/angleBuckets, clamped at 0: below 0 a larger radius
	// gives a smaller product, so a radius bound times a negative bound
	// would not bound the exact product.
	trig [angleBuckets][2]float64
	// tail[i] = P(N > -tailZ + i/tailSteps) for a standard normal N.
	tail [2*tailZ*tailSteps + 1]float64
}

var bounds = newDrawBounds()

func newDrawBounds() *drawBounds {
	b := &drawBounds{}
	for i := range b.radius {
		// The radius falls as u grows, so each bucket's bound is at its
		// lower edge; bucket 0 starts at UniformPair's smallest u, 2⁻⁵³.
		u := max(float64(i)/radiusBuckets, 0x1p-53)
		b.radius[i] = stats.BoxMullerRadius(u) * (1 + boundSlack)
	}
	for j := range b.trig {
		// The extremes of cos and sin lie on bucket edges (multiples of a
		// quarter turn), so both are monotone within a bucket and peak at
		// one of its edges.
		lo := stats.BoxMullerAngle(float64(j) / angleBuckets)
		hi := stats.BoxMullerAngle(float64(j+1) / angleBuckets)
		b.trig[j][0] = max(math.Cos(lo)+boundSlack, math.Cos(hi)+boundSlack, 0)
		b.trig[j][1] = max(math.Sin(lo)+boundSlack, math.Sin(hi)+boundSlack, 0)
	}
	for i := range b.tail {
		z := -tailZ + float64(i)/tailSteps
		b.tail[i] = 0.5 * math.Erfc(z/math.Sqrt2)
	}
	return b
}

// prefillDraw is one Generator's state and O(E) scratch for the pruned
// draw, set up per prefill call and reused across calls.
type prefillDraw struct {
	// The current call's layer latents and noise scale, its threshold τ
	// and float32(τ), |σ|, and the angle-bucket offset that turns the
	// bounds of cos and sin into bounds of -cos and -sin when σ < 0.
	lat        []float64
	sigma, tau float64
	absSigma   float64
	tau32      float32
	flip, k    int
	// u and v record each uniform pair of the current token for the
	// fallback; hit and val hold the entries whose exact value exceeds
	// float32(τ), in index order.
	u, v []float64
	hit  []int
	val  []float32
}

// begin prepares the draw for one prefill call over a layer's latents.
func (d *prefillDraw) begin(lat []float64, sigma float64, k int) {
	n := len(lat)
	if cap(d.hit) < n {
		d.u = make([]float64, n/2+1)
		d.v = make([]float64, n/2+1)
		d.hit = make([]int, 0, n)
		d.val = make([]float32, 0, n)
	}
	d.lat, d.sigma, d.k = lat, sigma, k
	d.absSigma, d.flip = math.Abs(sigma), 0
	if sigma < 0 {
		d.flip = angleBuckets / 2 // -cos θ = cos(θ+π), -sin θ = sin(θ+π)
	}
	d.tau = threshold(lat, d.absSigma, k)
	d.tau32 = float32(d.tau)
}

// threshold picks τ by bisection so that about thresholdTarget·k of a
// row's entries latent + |σ|·N are expected to exceed it. τ only steers
// how much is pruned; any value gives the same loads.
func threshold(lat []float64, absSigma float64, k int) float64 {
	lo, hi := lat[0], lat[0]
	for _, l := range lat[1:] {
		lo, hi = min(lo, l), max(hi, l)
	}
	lo -= tailZ * absSigma
	hi += tailZ * absSigma
	target := thresholdTarget * float64(k)
	scale := tailSteps / absSigma
	const last = 2 * tailZ * tailSteps
	for step := 0; step < thresholdSteps; step++ {
		tau := (lo + hi) / 2
		// Entry e exceeds tau with probability tail at index
		// ((tau - lat[e])/|σ| + tailZ)·tailSteps.
		base := tau*scale + tailZ*tailSteps
		var expected float64
		for _, l := range lat {
			x := base - l*scale
			switch {
			case x <= 0:
				expected += bounds.tail[0]
			case x < last:
				expected += bounds.tail[int(x)]
			}
			if expected >= target {
				break
			}
		}
		if expected >= target {
			lo = tau
		} else {
			hi = tau
		}
	}
	return lo
}

// tokenLogit is one dense-row entry, float32(l + NormMeanStd(0, sigma))
// for the standard normal z, with NormMeanStd's arithmetic.
func tokenLogit(l, sigma, z float64) float32 {
	return float32(l + (0 + sigma*z))
}

// tokenTopK draws one prompt token's routing row from the generator's
// RNG and returns the indices TopKInto would select from the dense row,
// in no particular order, valid until the next selection.
func (g *Generator) tokenTopK(d *prefillDraw) []int {
	rng, lat, sigma, tau := g.rng, d.lat, d.sigma, d.tau
	n := len(lat)
	hit, val := d.hit[:0], d.val[:0]
	keep := func(e int, z float64) {
		if x := tokenLogit(lat[e], sigma, z); x > d.tau32 {
			hit = append(hit, e)
			val = append(val, x)
		}
	}
	e := 0
	cached, hasCached := rng.TakeCached()
	if hasCached {
		keep(0, cached)
		e = 1
	}
	for p := 0; e < n; p, e = p+1, e+2 {
		u, v := rng.UniformPair()
		d.u[p], d.v[p] = u, v
		open := e+1 == n // the pair's sine half outlives the row
		tb := &bounds.trig[(int(v*angleBuckets)+d.flip)&(angleBuckets-1)]
		r := d.absSigma * bounds.radius[int(u*radiusBuckets)&(radiusBuckets-1)]
		needC := lat[e]+r*tb[0] >= tau
		needS := !open && lat[e+1]+r*tb[1] >= tau
		if !needC && !needS && !open {
			continue
		}
		// Re-check each half against the exact radius, then compute
		// only the trigonometric halves still needed.
		mag := stats.BoxMullerRadius(u)
		r = d.absSigma * mag
		needC = needC && lat[e]+r*tb[0] >= tau
		needS = needS && lat[e+1]+r*tb[1] >= tau
		theta := stats.BoxMullerAngle(v)
		var s, c float64
		switch {
		case needC && (needS || open):
			s, c = math.Sincos(theta)
		case needC:
			c = math.Cos(theta)
		case needS || open:
			s = math.Sin(theta)
		}
		if needC {
			keep(e, mag*c)
		}
		if needS {
			keep(e+1, mag*s)
		}
		if open {
			rng.PutCached(mag * s)
		}
	}
	switch {
	case len(hit) == d.k:
		return hit
	case len(hit) > d.k:
		g.top = tensor.TopKInto(g.top, val, d.k)
		for i, j := range g.top {
			g.top[i] = hit[j]
		}
		return g.top
	}
	// Fewer than k exact values clear float32(τ): rank the dense row.
	row := g.rankRow(n)
	e = 0
	if hasCached {
		row[0] = tokenLogit(lat[0], sigma, cached)
		e = 1
	}
	for p := 0; e < n; p, e = p+1, e+2 {
		c, s := stats.BoxMuller(d.u[p], d.v[p])
		row[e] = tokenLogit(lat[e], sigma, c)
		if e+1 < n {
			row[e+1] = tokenLogit(lat[e+1], sigma, s)
		}
	}
	g.top = tensor.TopKInto(g.top, row, d.k)
	return g.top
}
