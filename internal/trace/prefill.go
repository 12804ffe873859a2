package trace

import (
	"math"
	"math/bits"
	"slices"

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
//     with float32 bounds lo ≤ x ≤ hi on its value x from its radius
//     bucket's edges and a first-order expansion of its cosine or sine
//     about its angle bucket's middle.
//   - A candidate is in when its lo beats float32(τ) and the (k+1)-th
//     largest hi, so at most k-1 other entries can reach its value. It
//     is out when its hi is below the least lo among the k highest his,
//     so k entries beat it strictly. A ranking network sorts the
//     candidates' his (rankKeys); when the least lo of the k highest
//     beats both float32(τ) and the (k+1)-th hi, those k are exactly
//     the in set and the row is settled.
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
	// bucketAngle is an angle bucket's width. Within half of it of the
	// bucket's middle, cos and sin differ from their first-order
	// expansion about the middle by at most trigRemainder: the Taylor
	// remainder, at most (bucketAngle/2)²/2, plus the slack.
	bucketAngle   = 2 * math.Pi / angleBuckets
	trigRemainder = bucketAngle*bucketAngle/8 + boundSlack
	// The normal tail is tabulated at tailSteps points per unit over
	// z ∈ [-tailZ, tailZ].
	tailZ     = 8
	tailSteps = 64
	// thresholdSteps bisections place τ so that about thresholdTarget·k
	// entries of a row are expected to exceed it.
	thresholdSteps  = 10
	thresholdTarget = 1.6
	// rankLevels networks sort 1, 2, 4, … maxRankKeys keys: a whole row
	// of up to 128 experts, in a 1 KiB scratch per generator.
	rankLevels  = 8
	maxRankKeys = 1 << (rankLevels - 1)
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
	// peak[j] bounds the cosine and the sine of BoxMullerAngle(v) for v
	// in [j, j+1)/angleBuckets from above, for the pair loop's filter.
	// Both are clamped at 0: below 0 a larger radius gives a smaller
	// product, so the upper radius bound times a negative maximum would
	// not bound the exact product.
	peak [angleBuckets][2]float64
	// mid[j] holds the cosine and the sine at the middle of angle bucket
	// j, then their derivatives there, -sin and cos, so that
	// mid[h] + mid[2+h]·δ is the first-order value of the cosine (h = 0)
	// or the sine (h = 1) at δ from the middle.
	mid [angleBuckets][4]float64
	// tail[i] = P(N > -tailZ + i/tailSteps) for a standard normal N.
	tail [2*tailZ*tailSteps + 1]float64
}

var bounds = newDrawBounds()

func newDrawBounds() *drawBounds {
	b := &drawBounds{}
	for i := range radiusBuckets {
		b.radius[i] = stats.BoxMullerRadius(max(float64(i)/radiusBuckets, 0x1p-53))
	}
	for j := range b.peak {
		// The extremes of cos and sin lie on bucket edges (multiples of a
		// quarter turn), so both are monotone within a bucket and peak at
		// one of its edges.
		lo := stats.BoxMullerAngle(float64(j) / angleBuckets)
		hi := stats.BoxMullerAngle(float64(j+1) / angleBuckets)
		b.peak[j] = [2]float64{
			max(math.Cos(lo)+boundSlack, math.Cos(hi)+boundSlack, 0),
			max(math.Sin(lo)+boundSlack, math.Sin(hi)+boundSlack, 0),
		}
		s, c := math.Sincos(stats.BoxMullerAngle((float64(j) + 0.5) / angleBuckets))
		b.mid[j] = [4]float64{c, s, -s, c}
	}
	for i := range b.tail {
		z := -tailZ + float64(i)/tailSteps
		b.tail[i] = 0.5 * math.Erfc(z/math.Sqrt2)
	}
	return b
}

// candidate is a row entry whose upper bound reaches τ, with float32
// bounds on its value, which settle sets for an entry with a pair of
// its own; lo == hi when the value is known exactly.
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
	// cand holds the current token's candidates in index order, then
	// the ambiguous ones, and keys their ranking keys (hiKey), at least
	// maxRankKeys long; sel collects the chosen entries, and hit and val
	// the ambiguous ones whose exact value exceeds float32(τ). The
	// token's uniform pairs stay in the generator's pair scratch.
	cand []candidate
	keys []uint64
	sel  []int
	hit  []int
	val  []float32
	// radii and values count the exact Box-Muller radii and entry values
	// computed outside the dense fallback, and ranked the rows settled
	// by the ranking alone.
	radii, values, ranked int
}

// begin prepares the draw for one prefill call over a layer's latents.
func (d *prefillDraw) begin(lat []float64, sigma float64, k int) {
	n := len(lat)
	if cap(d.cand) < n {
		d.cand = make([]candidate, n)
		d.keys = make([]uint64, max(n, maxRankKeys))
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

// trigBounds bounds T, the cosine (h = 0) or the sine (h = 1) of v's
// angle, turned half a turn by a flip of angleBuckets/2 (σ < 0), from
// both sides: T lies within trigRemainder of its first-order value
// about the angle bucket's middle.
func trigBounds(v float64, h, flip int) (lo, hi float64) {
	f := v * angleBuckets
	j := int(f)
	m := &bounds.mid[(j+flip)&(angleBuckets-1)]
	t := m[h] + m[2+h]*((f-float64(j)-0.5)*bucketAngle)
	return t - trigRemainder, t + trigRemainder
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
	rng, lat, sigma, tau, k := g.rng, d.lat, d.sigma, d.tau, d.k
	rHiScale, flip := d.rHi, d.flip
	n := len(lat)
	cand, nc := d.cand[:n], 0
	off := 0 // the entries before the first pair's
	cached, hasCached := rng.TakeCached()
	if hasCached {
		if x := tokenLogit(lat[0], sigma, cached); x > d.tau32 {
			cand[0] = candidate{0, x, x}
			nc = 1
		}
		off = 1
	}
	us, vs := g.uniformPairs(rng, (n-off+1)/2)
	full := n - (n-off)&1 // entries from off to full-1 have pairs of their own
	e := off
	for p, u := range us[:(full-off)/2] {
		ui := int(u*radiusBuckets) & (radiusBuckets - 1)
		tb := &bounds.peak[(int(vs[p]*angleBuckets)+flip)&(angleBuckets-1)]
		rHi := rHiScale * bounds.radius[ui]
		// Both halves are written and kept only if their bound reaches τ,
		// which spares the branch a coin flip would mispredict. settle
		// bounds the kept ones.
		cand[nc].e = e
		if lat[e]+rHi*tb[0] >= tau {
			nc++
		}
		cand[nc].e = e + 1
		if lat[e+1]+rHi*tb[1] >= tau {
			nc++
		}
		e += 2
	}
	if full < n {
		// The row's last entry opens a pair, whose sine half outlives it.
		p := len(us) - 1
		mag := stats.BoxMullerRadius(us[p])
		s, c := math.Sincos(stats.BoxMullerAngle(vs[p]))
		rng.PutCached(mag * s)
		if x := tokenLogit(lat[full], sigma, mag*c); x > d.tau32 {
			cand[nc] = candidate{full, x, x}
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
	if hasCached {
		row[0] = tokenLogit(lat[0], sigma, cached)
	}
	for p, e := 0, off; e < n; p, e = p+1, e+2 {
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
// their own in the generator's pair scratch, entry e's being
// (e-off)/2, and are bounded here; the others are known exactly. It
// reuses cand's storage for the ambiguous candidates.
func (g *Generator) settle(d *prefillDraw, cand []candidate, off, full int) []int {
	k, keys, us, vs := d.k, d.keys, g.us, g.vs
	lat, flip, rHiScale, rLoScale := d.lat, d.flip, d.rHi, d.rLo
	for i := range cand {
		c := &cand[i]
		if e := c.e; e >= off && e < full {
			// The value is float32(l + |σ|·R·T) for the pair's radius R
			// and its T, with |σ|·R between rLo and rHi. For a fixed R ≥ 0,
			// R·T is at most R times T's upper bound, and that is linear in
			// R, so it peaks at one edge: the larger radius for a
			// non-negative bound, the smaller for a negative one. The lower
			// bound mirrors it.
			p := (e - off) >> 1
			tLo, tHi := trigBounds(vs[p], (e-off)&1, flip)
			ui := int(us[p]*radiusBuckets) & (radiusBuckets - 1)
			rHi, rLo := rHiScale*bounds.radius[ui], rLoScale*bounds.radius[ui+1]
			c.hi = float32(lat[e] + max(rHi*tHi, rLo*tHi))
			c.lo = float32(lat[e] + min(rHi*tLo, rLo*tLo))
		}
		keys[i] = hiKey(c.hi, i)
	}
	// An in entry's lo beats float32(τ) and every hi outside the k
	// highest; an out entry's hi is below the least lo among them.
	// Once ranked, keys[r]'s low half is the position in cand of the
	// candidate with the r-th highest hi.
	rankKeys(keys, len(cand))
	in, out := d.tau32, float32(math.Inf(1))
	if len(cand) > k {
		in = max(in, cand[uint32(keys[k])].hi)
	}
	sel := d.sel[:len(cand)]
	for r, key := range keys[:k] {
		c := &cand[uint32(key)]
		sel[r], out = c.e, min(out, c.lo)
	}
	if out > in {
		// Each of the k highest his has a lo above every other hi.
		d.ranked++
		return sel[:k]
	}
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
				lastP, mag = p, stats.BoxMullerRadius(us[p])
				d.radii++
			}
			var t float64
			if theta := stats.BoxMullerAngle(vs[p]); (c.e-off)&1 == 0 {
				t = math.Cos(theta)
			} else {
				t = math.Sin(theta)
			}
			x = tokenLogit(lat[c.e], d.sigma, mag*t)
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

// hiKey packs a candidate's upper bound hi and its position i into a
// key whose ascending order is TopKInto's: hi descending, then i
// ascending. Its high half reads hi's sign and magnitude bits as an
// integer, negated so that larger values come first and offset by 2³¹
// to order as unsigned. -0 and +0, equal under >, both read as 0, and
// no hi but a NaN reaches the all-ones half that pads a network.
func hiKey(hi float32, i int) uint64 {
	b := int32(math.Float32bits(hi))
	s := b >> 31
	neg := s - (b&math.MaxInt32 ^ s)
	return uint64(uint32(neg)^1<<31)<<32 | uint64(uint32(i))
}

// networks[j] is Batcher's odd-even merge sort over 2^j keys as
// compare-exchange pairs in running order: each pass p merges sorted
// runs of p keys into runs of 2p, comparing keys k apart for k = p,
// p/2, … 1 within each run of 2p.
var networks = func() (nets [rankLevels][][2]uint8) {
	for j := range nets {
		n := 1 << j
		for p := 1; p < n; p *= 2 {
			for k := p; k >= 1; k /= 2 {
				for lo := k % p; lo+k < n; lo += 2 * k {
					for i := lo; i < lo+k; i++ {
						if i/(2*p) == (i+k)/(2*p) {
							nets[j] = append(nets[j], [2]uint8{uint8(i), uint8(i + k)})
						}
					}
				}
			}
		}
	}
	return nets
}()

// rankKeys sorts keys[:n] ascending, where keys holds at least
// maxRankKeys entries. Up to maxRankKeys keys, it pads them with
// all-ones keys to the next power of two and runs that size's network,
// whose compare-exchanges take no branch; a longer row goes to
// slices.Sort.
func rankKeys(keys []uint64, n int) {
	j := bits.Len(uint(n - 1)) // 2^j is the least power of two ≥ n
	if j >= rankLevels {
		slices.Sort(keys[:n])
		return
	}
	ks := (*[maxRankKeys]uint64)(keys)
	for i := n; i < 1<<j; i++ {
		ks[i] = math.MaxUint64
	}
	// Masking the positions, all below maxRankKeys, spares their bounds
	// checks.
	net := networks[j]
	for i := range net {
		x, y := &ks[net[i][0]&(maxRankKeys-1)], &ks[net[i][1]&(maxRankKeys-1)]
		*x, *y = min(*x, *y), max(*x, *y)
	}
}
