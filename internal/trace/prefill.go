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
// order, but runs the Box-Muller transcendentals only for the entries
// whose place the bucket bounds leave open:
//
//   - An entry whose cheap upper bound is below a per-call threshold τ
//     has a value at most float32(τ). Every other entry is a candidate,
//     with float32 bounds lo ≤ x ≤ hi on its value x.
//   - A candidate is in when its lo beats float32(τ) and the (k+1)-th
//     largest hi, so at most k-1 other entries can reach its value. It
//     is out when its hi is below the least lo among the k highest his,
//     so k entries beat it strictly.
//   - The ambiguous rest get exact values, and the best of those above
//     float32(τ) fill the remaining places by descending value, then
//     ascending index, the dense row's tie-break.
//   - An out entry above float32(τ) implies k in or ambiguous entries
//     above it. So when fewer than k of those exceed float32(τ), fewer
//     than k entries of the row do, and the dense row is rebuilt from
//     the recorded uniforms and ranked in full; that fallback is the
//     only full-row code.
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
	// radius[i] is BoxMullerRadius at u = i/radiusBuckets, at
	// UniformPair's smallest u, 2⁻⁵³, for i = 0, and 0 at i =
	// radiusBuckets. The radius falls as u grows, so bucket i's radii lie
	// between radius[i+1] and radius[i]. Every entry is finite: a zero
	// trigonometric bound times +Inf is NaN, and a NaN bound fails the
	// comparison that makes an entry a candidate.
	radius [radiusBuckets + 1]float64
	// trig[j] bounds the cosine and the sine of BoxMullerAngle(v) for v
	// in [j, j+1)/angleBuckets: their maxima, then their minima. The
	// maxima are clamped at 0: below 0 a larger radius gives a smaller
	// product, so the upper radius bound times a negative maximum would
	// not bound the exact product.
	trig [angleBuckets][4]float64
	// tail[i] = P(N > -tailZ + i/tailSteps) for a standard normal N.
	tail [2*tailZ*tailSteps + 1]float64
}

var bounds = newDrawBounds()

func newDrawBounds() *drawBounds {
	b := &drawBounds{}
	for i := range radiusBuckets {
		b.radius[i] = stats.BoxMullerRadius(max(float64(i)/radiusBuckets, 0x1p-53))
	}
	for j := range b.trig {
		// The extremes of cos and sin lie on bucket edges (multiples of a
		// quarter turn), so both are monotone within a bucket and peak at
		// one of its edges.
		lo := stats.BoxMullerAngle(float64(j) / angleBuckets)
		hi := stats.BoxMullerAngle(float64(j+1) / angleBuckets)
		cl, sl, ch, sh := math.Cos(lo), math.Sin(lo), math.Cos(hi), math.Sin(hi)
		b.trig[j] = [4]float64{
			max(cl+boundSlack, ch+boundSlack, 0),
			max(sl+boundSlack, sh+boundSlack, 0),
			min(cl, ch) - boundSlack,
			min(sl, sh) - boundSlack,
		}
	}
	for i := range b.tail {
		z := -tailZ + float64(i)/tailSteps
		b.tail[i] = 0.5 * math.Erfc(z/math.Sqrt2)
	}
	return b
}

// candidate is a row entry whose upper bound reaches τ, with float32
// bounds on its value; lo == hi when the value is known exactly.
type candidate struct {
	e      int
	lo, hi float32
}

// prefillDraw is one Generator's state and O(E) scratch for the pruned
// draw, set up per prefill call and reused across calls.
type prefillDraw struct {
	// The current call's layer latents and noise scale, its threshold τ
	// and float32(τ), |σ|·(1±boundSlack), which turn radius bounds into
	// bounds on |σ| times the exact radius, and the angle-bucket offset
	// that turns the bounds of cos and sin into bounds of -cos and -sin
	// when σ < 0.
	lat        []float64
	sigma, tau float64
	rHi, rLo   float64
	tau32      float32
	flip, k    int
	// u and v record each uniform pair of the current token; cand holds
	// its candidates in index order, then the ambiguous ones, his their
	// upper bounds and top the positions of the k+1 highest; sel
	// collects the chosen entries, and hit and val the ambiguous ones
	// whose exact value exceeds float32(τ).
	u, v []float64
	cand []candidate
	his  []float32
	top  []int
	sel  []int
	hit  []int
	val  []float32
	// radii and values count the exact Box-Muller radii and entry values
	// computed outside the dense fallback.
	radii, values int
}

// begin prepares the draw for one prefill call over a layer's latents.
func (d *prefillDraw) begin(lat []float64, sigma float64, k int) {
	n := len(lat)
	if cap(d.cand) < n {
		d.u = make([]float64, n/2+1)
		d.v = make([]float64, n/2+1)
		d.cand = make([]candidate, n)
		d.his = make([]float32, n)
		d.top = make([]int, 0, n)
		d.sel = make([]int, 0, n)
		d.hit = make([]int, 0, n)
		d.val = make([]float32, 0, n)
	}
	absSigma := math.Abs(sigma)
	d.lat, d.sigma, d.k = lat, sigma, k
	d.rHi, d.rLo, d.flip = absSigma*(1+boundSlack), absSigma*(1-boundSlack), 0
	if sigma < 0 {
		d.flip = angleBuckets / 2 // -cos θ = cos(θ+π), -sin θ = sin(θ+π)
	}
	d.tau = threshold(lat, absSigma, k)
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

// lowerBound bounds float32(l + |σ|·R·T) from below for |σ|·R in
// [rLo, rHi] and T at least t.
func lowerBound(l, rLo, rHi, t float64) float32 {
	// A negative product falls as the radius grows.
	return float32(l + min(rLo*t, rHi*t))
}

// tokenTopK draws one prompt token's routing row from the generator's
// RNG and returns the indices TopKInto would select from the dense row,
// in no particular order, valid until the next selection.
func (g *Generator) tokenTopK(d *prefillDraw) []int {
	rng, lat, sigma, tau, k := g.rng, d.lat, d.sigma, d.tau, d.k
	rHiScale, flip := d.rHi, d.flip
	n := len(lat)
	cand, nc := d.cand[:n], 0
	e, off := 0, 0 // off: the entries before the first pair's
	cached, hasCached := rng.TakeCached()
	if hasCached {
		if x := tokenLogit(lat[0], sigma, cached); x > d.tau32 {
			cand[0] = candidate{0, x, x}
			nc = 1
		}
		e, off = 1, 1
	}
	us, vs := d.u, d.v
	p := 0
	for ; e+1 < n; p, e = p+1, e+2 {
		u, v := rng.UniformPair()
		us[p], vs[p] = u, v
		ui := int(u*radiusBuckets) & (radiusBuckets - 1)
		tb := &bounds.trig[(int(v*angleBuckets)+flip)&(angleBuckets-1)]
		rHi := rHiScale * bounds.radius[ui]
		hiC, hiS := lat[e]+rHi*tb[0], lat[e+1]+rHi*tb[1]
		// Both halves are written and kept only if they reach τ, which
		// spares the branch a coin flip would mispredict. settle adds
		// the lower bounds of the kept ones.
		cand[nc].e, cand[nc].hi = e, float32(hiC)
		if hiC >= tau {
			nc++
		}
		cand[nc].e, cand[nc].hi = e+1, float32(hiS)
		if hiS >= tau {
			nc++
		}
	}
	full := e // entries from off to full-1 have pairs of their own
	if e < n {
		// The row's last entry opens a pair, whose sine half outlives it.
		u, v := rng.UniformPair()
		us[p], vs[p] = u, v
		mag := stats.BoxMullerRadius(u)
		s, c := math.Sincos(stats.BoxMullerAngle(v))
		rng.PutCached(mag * s)
		if x := tokenLogit(lat[e], sigma, mag*c); x > d.tau32 {
			cand[nc] = candidate{e, x, x}
			nc++
		}
	}
	cand = cand[:nc]
	if len(cand) >= k {
		if sel := g.settle(d, cand, off, full); sel != nil {
			return sel
		}
	}
	// Fewer than k exact values clear float32(τ): rank the dense row.
	row := g.rankRow(n)
	e = 0
	if hasCached {
		row[0] = tokenLogit(lat[0], sigma, cached)
		e = 1
	}
	for p := 0; e < n; p, e = p+1, e+2 {
		c, s := stats.BoxMuller(us[p], vs[p])
		row[e] = tokenLogit(lat[e], sigma, c)
		if e+1 < n {
			row[e+1] = tokenLogit(lat[e+1], sigma, s)
		}
	}
	g.top = tensor.TopKInto(g.top, row, k)
	return g.top
}

// settle picks the row's top-k from at least k candidates, computing
// exact values only for the ambiguous ones, or returns nil when fewer
// than k values exceed float32(τ). Entries off to full-1 have pairs of
// their own, entry e's being (e-off)/2; the others are known exactly. It
// reuses cand's storage for the ambiguous candidates.
func (g *Generator) settle(d *prefillDraw, cand []candidate, off, full int) []int {
	k, his := d.k, d.his[:len(cand)]
	for i, c := range cand {
		his[i] = c.hi
		if c.e < off || c.e >= full {
			continue
		}
		p, half := (c.e-off)>>1, (c.e-off)&1
		ui := int(d.u[p]*radiusBuckets) & (radiusBuckets - 1)
		tb := &bounds.trig[(int(d.v[p]*angleBuckets)+d.flip)&(angleBuckets-1)]
		rHi, rLo := d.rHi*bounds.radius[ui], d.rLo*bounds.radius[ui+1]
		cand[i].lo = lowerBound(d.lat[c.e], rLo, rHi, tb[2+half])
	}
	// An in entry's lo beats float32(τ) and every hi outside the k
	// highest; an out entry's hi is below the least lo among them.
	d.top = tensor.TopKInto(d.top, his, min(k+1, len(his)))
	in, out := d.tau32, cand[d.top[0]].lo
	if len(d.top) > k {
		in = max(in, his[d.top[k]])
	}
	for _, i := range d.top[1:k] {
		out = min(out, cand[i].lo)
	}
	sel := d.sel[:len(cand)]
	ns, na := 0, 0
	for _, c := range cand {
		sel[ns], cand[na] = c.e, c
		isIn := c.lo > in
		isAmbiguous := !isIn && c.hi >= out
		if isIn {
			ns++
		}
		if isAmbiguous {
			na++
		}
	}
	sel = sel[:ns]
	if ns == k {
		return sel
	}
	if ns+na < k {
		return nil
	}
	hit, val := d.hit[:0], d.val[:0]
	lastP, mag := -1, 0.0
	for _, c := range cand[:na] {
		x := c.lo
		if c.lo != c.hi {
			p := (c.e - off) >> 1
			if p != lastP {
				lastP, mag = p, stats.BoxMullerRadius(d.u[p])
				d.radii++
			}
			var t float64
			if theta := stats.BoxMullerAngle(d.v[p]); (c.e-off)&1 == 0 {
				t = math.Cos(theta)
			} else {
				t = math.Sin(theta)
			}
			x = tokenLogit(d.lat[c.e], d.sigma, mag*t)
			d.values++
		}
		if x > d.tau32 {
			hit = append(hit, c.e)
			val = append(val, x)
		}
	}
	if ns+len(hit) < k {
		return nil
	}
	g.top = tensor.TopKInto(g.top, val, k-ns)
	for _, j := range g.top {
		sel = append(sel, hit[j])
	}
	return sel
}
