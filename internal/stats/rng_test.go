package stats

import (
	"fmt"
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 16; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Float64())
	}
	if math.Abs(acc.Mean()-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ≈0.5", acc.Mean())
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Norm())
	}
	if math.Abs(acc.Mean()) > 0.02 {
		t.Errorf("normal mean = %v, want ≈0", acc.Mean())
	}
	if math.Abs(acc.StdDev()-1) > 0.02 {
		t.Errorf("normal sd = %v, want ≈1", acc.StdDev())
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) should hit all values over 1000 draws, hit %d", len(seen))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) should panic")
			}
		}()
		r.Intn(0)
	}()
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Exp(2))
	}
	if math.Abs(acc.Mean()-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ≈0.5", acc.Mean())
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(6)
	z := NewZipf(50, 1.2)
	counts := make([]int64, 50)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("zipf should concentrate on low indices: c0=%d c10=%d", counts[0], counts[10])
	}
	g := GiniCoefficient(counts)
	if g < 0.4 {
		t.Errorf("zipf(1.2) gini = %v, want strongly skewed (>0.4)", g)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(7)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// TestNormMatchesSinCosBoxMuller pins Norm's bits, draw for draw over
// 2²¹ variates, to the Box-Muller transform written out with separate
// math.Sin and math.Cos calls and its own cache. Norm shares one
// argument reduction through math.Sincos; the routing draws every
// golden depends on must not move by a single bit.
func TestNormMatchesSinCosBoxMuller(t *testing.T) {
	r, ref := NewRNG(11), NewRNG(11)
	var cached float64
	hasCached := false
	refNorm := func() float64 {
		if hasCached {
			hasCached = false
			return cached
		}
		var u, v float64
		for u == 0 {
			u = ref.Float64()
		}
		v = ref.Float64()
		mag := math.Sqrt(-2 * math.Log(u))
		cached = mag * math.Sin(2*math.Pi*v)
		hasCached = true
		return mag * math.Cos(2*math.Pi*v)
	}
	for i := 0; i < 1<<21; i++ {
		got, want := r.Norm(), refNorm()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Norm = %v (%#x), Sin/Cos Box-Muller = %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("Norm consumed a different number of uniforms")
	}
}

// TestCachedVariateRoundTrip checks the pieces Norm is built from: a
// taken variate is gone, a put one is what the next Norm returns, and
// a pair replayed from UniformPair gives Norm's two variates.
func TestCachedVariateRoundTrip(t *testing.T) {
	r := NewRNG(12)
	if _, ok := r.TakeCached(); ok {
		t.Fatal("fresh generator holds a cached variate")
	}
	r.PutCached(1.25)
	if got := r.Norm(); got != 1.25 {
		t.Fatalf("Norm after PutCached(1.25) = %v", got)
	}
	a, b := NewRNG(13), NewRNG(13)
	first, second := a.Norm(), a.Norm()
	u, v := b.UniformPair()
	if c, s := BoxMuller(u, v); c != first || s != second {
		t.Fatalf("BoxMuller replay = (%v, %v), Norm gave (%v, %v)", c, s, first, second)
	}
	mag := BoxMullerRadius(u)
	if c := mag * math.Cos(BoxMullerAngle(v)); c != first {
		t.Fatalf("replayed cosine half %v, Norm gave %v", c, first)
	}
	if s := mag * math.Sin(BoxMullerAngle(v)); s != second {
		t.Fatalf("replayed sine half %v, Norm gave %v", s, second)
	}
	if z, ok := a.TakeCached(); ok {
		t.Fatalf("Norm left variate %v cached after returning both halves", z)
	}
}

// checkUniformPairs draws n pairs from a by UniformPairs and from b by
// successive UniformPair calls, and reports the first difference in
// the pairs' bits, in the next Uint64 or in the cached variate.
func checkUniformPairs(a, b *RNG, n int) error {
	us, vs := make([]float64, n), make([]float64, n)
	a.UniformPairs(us, vs)
	for i := range n {
		u, v := b.UniformPair()
		if math.Float64bits(us[i]) != math.Float64bits(u) || math.Float64bits(vs[i]) != math.Float64bits(v) {
			return fmt.Errorf("pair %d of %d: batch (%v, %v), UniformPair (%v, %v)", i, n, us[i], vs[i], u, v)
		}
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		return fmt.Errorf("after %d pairs: next Uint64 %#x, UniformPair's %#x", n, x, y)
	}
	za, oka := a.TakeCached()
	zb, okb := b.TakeCached()
	if oka != okb || math.Float64bits(za) != math.Float64bits(zb) {
		return fmt.Errorf("after %d pairs: cached (%v, %v), UniformPair's (%v, %v)", n, za, oka, zb, okb)
	}
	return nil
}

// TestUniformPairsMatchesUniformPair pins the batch draw to successive
// UniformPair calls, bit for bit, at every length from 0 to 70 over 40
// seeds, with and without a cached variate (which neither touches). Two
// states no seeded run reaches are set by hand: s[1] = 0 makes the next
// output exactly 0, so the first u must be redrawn, and s[1] = s[0]^s[2]
// makes the output after it 0, so the first v is 0 and must be kept.
func TestUniformPairsMatchesUniformPair(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for n := 0; n <= 70; n++ {
			a, b := NewRNG(seed), NewRNG(seed)
			if n%2 == 1 {
				a.PutCached(0.5)
				b.PutCached(0.5)
			}
			if err := checkUniformPairs(a, b, n); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	for _, c := range []struct {
		name string
		set  func(s *[4]uint64)
		u, v bool // whether the first u is redrawn, whether the first v is 0
	}{
		{"zero-u", func(s *[4]uint64) { s[1] = 0 }, true, false},
		{"zero-v", func(s *[4]uint64) { s[1] = s[0] ^ s[2] }, false, true},
	} {
		for n := 1; n <= 3; n++ {
			a, b := NewRNG(7), NewRNG(7)
			c.set(&a.s)
			b.s = a.s
			first, pair := *a, *a
			if got := first.Uint64() == 0; got != c.u {
				t.Fatalf("%s: first output 0 is %v, want %v", c.name, got, c.u)
			}
			if _, v := pair.UniformPair(); (v == 0) != c.v {
				t.Fatalf("%s: first v = %v", c.name, v)
			}
			if err := checkUniformPairs(a, b, n); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}

// TestUniformPairsPanicsOnShortVs pins the length contract.
func TestUniformPairsPanicsOnShortVs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformPairs with len(vs) < len(us) should panic")
		}
	}()
	NewRNG(1).UniformPairs(make([]float64, 3), make([]float64, 2))
}

// FuzzUniformPairsMatchesUniformPair runs checkUniformPairs on a seed,
// a length from 0 to 70, whether a variate is cached, and a state edit:
// none, s[1] = 0 (the first u is redrawn) or s[1] = s[0]^s[2] (the
// first v is 0).
func FuzzUniformPairsMatchesUniformPair(f *testing.F) {
	f.Add(uint64(1), uint8(0), false, uint8(0))
	f.Add(uint64(2), uint8(33), true, uint8(0))
	f.Add(uint64(3), uint8(70), false, uint8(1))
	f.Add(uint64(4), uint8(5), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, cached bool, edit uint8) {
		a := NewRNG(seed)
		switch edit % 3 {
		case 1:
			a.s[1] = 0
		case 2:
			a.s[1] = a.s[0] ^ a.s[2]
		}
		if cached {
			a.PutCached(-1.5)
		}
		b := *a
		if err := checkUniformPairs(a, &b, int(n)%71); err != nil {
			t.Fatal(err)
		}
	})
}
