package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"hybrimoe/internal/stats"
)

// checkTopKSet reports whether TopKSetInto and its bucket kernel, at
// any row length, both select TopKInto's set from xs at k, and leave no
// duplicate.
func checkTopKSet[T float32 | float64](xs []T, k int) error {
	want := slices.Clone(TopKInto(nil, xs, k))
	slices.Sort(want)
	for _, sel := range []struct {
		name string
		fn   func([]int, []T, int) []int
	}{{"TopKSetInto", TopKSetInto[T]}, {"topKBuckets", topKBuckets[T]}} {
		got := slices.Clone(sel.fn(nil, xs, k))
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("xs=%v k=%d: %s selected %v, TopKInto %v", xs, k, sel.name, got, want)
		}
	}
	return nil
}

// TestTopKSetMatchesTopKInto compares the unranked selection and its
// bucket kernel with TopKInto's set, for float32 and float64, on rows
// that reach each of the kernel's branches: the k-th alone in its
// bucket, ties straddling the k-th place inside one bucket, a boundary
// bucket holding all but one value, all-equal rows, infinities, NaNs,
// spans too narrow or too wide to scale, and both ends of k. Random
// rows run at lengths 1 to 96 and at each length from two below
// topKSetMinLen to two above, where TopKSetInto switches from TopKInto
// to the kernel.
func TestTopKSetMatchesTopKInto(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := []struct {
		name string
		xs   []float64
	}{
		{"distinct", []float64{0.1, 0.9, 0.5, 0.7, 0.3, 0.8, 0.2}},
		{"ties-at-kth", []float64{0.5, 0.9, 0.5, 0.1, 0.5, 0.5, 0.2}},
		{"ties-at-top", []float64{0.9, 0.1, 0.9, 0.9, 0.2, 0.9}},
		{"one-outlier", []float64{1e-6, 2e-6, 1.5e-6, 1, 3e-6, 1e-6, 2.5e-6, 1e-6}},
		{"all-equal", []float64{0.25, 0.25, 0.25, 0.25, 0.25}},
		{"single", []float64{3}},
		{"negative", []float64{-3, -1, -2, -1, -5}},
		{"plus-inf", []float64{0.1, inf, 0.3, 0.2, inf}},
		{"minus-inf", []float64{-inf, 0.1, -inf, 0.4, 0.2}},
		{"both-inf", []float64{inf, -inf, 0, inf, -inf}},
		{"nan-first", []float64{nan, 0.3, 0.1, 0.2}},
		{"nan-inside", []float64{0.3, 0.1, nan, 0.2, 0.5}},
		{"tiny-span", []float64{5e-324, 0, 5e-324, 0, 1e-323}},
		{"huge-span", []float64{-math.MaxFloat64, math.MaxFloat64, 0, 1, -1}},
	}
	// Random rows: softmax-like skew (a few large values over many
	// small ones), and coarse levels that tie often.
	rng := stats.NewRNG(12)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(96)
		if trial >= 40 {
			n = topKSetMinLen - 2 + (trial-40)/2
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(rng.NormMeanStd(0, 2))
			if trial%2 == 1 {
				xs[i] = float64(rng.Intn(5)) / 4
			}
		}
		rows = append(rows, struct {
			name string
			xs   []float64
		}{fmt.Sprintf("random-%d", trial), xs})
	}
	for _, row := range rows {
		f32 := make([]float32, len(row.xs))
		for i, v := range row.xs {
			f32[i] = float32(v)
		}
		for k := 1; k <= len(row.xs); k++ {
			if err := checkTopKSet(row.xs, k); err != nil {
				t.Errorf("%s float64: %v", row.name, err)
			}
			if err := checkTopKSet(f32, k); err != nil {
				t.Errorf("%s float32: %v", row.name, err)
			}
		}
	}
}

// TestTopKSetIntoPanics matches TopKInto's contract on k.
func TestTopKSetIntoPanics(t *testing.T) {
	for _, k := range []int{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TopKSetInto k=%d should panic", k)
				}
			}()
			TopKSetInto(nil, []float32{1, 2, 3}, k)
		}()
	}
}

// TestTopKSetIntoDoesNotAllocate pins the warm-scratch contract on a
// row TopKInto ranks and one the bucket kernel selects from.
func TestTopKSetIntoDoesNotAllocate(t *testing.T) {
	long := make([]float64, 64)
	for i := range long {
		long[i] = float64(i*37%64) / 64
	}
	for _, xs := range [][]float64{{0.1, 0.9, 0.5, 0.7, 0.5, 0.05, 0.6}, long} {
		dst := TopKSetInto(nil, xs, 3)
		if a := testing.AllocsPerRun(100, func() { dst = TopKSetInto(dst, xs, 3) }); a != 0 {
			t.Fatalf("TopKSetInto allocated %.1f times per call on %d values with warm scratch", a, len(xs))
		}
	}
}

// FuzzTopKSetMatchesTopKInto decodes a row and a k from the input and
// requires TopKSetInto's set to equal TopKInto's. The first byte picks
// k and the second one of four decodings: one float64 or float32 value
// per byte, from eight tied levels and the specials NaN, ±Inf,
// ±MaxFloat64 and the least subnormal, or raw IEEE bits, 4 bytes per
// float32 or 8 per float64.
func FuzzTopKSetMatchesTopKInto(f *testing.F) {
	f.Add([]byte("\x03\x00\x01\x07\x03\x03\x05\x03\x00"))
	f.Add([]byte("\x02\x01\xfa\x01\x02\xfb\x03"))
	f.Add([]byte("\x01\x02\x00\x00\x80\x3f\x00\x00\xc0\x7f\x00\x00\x00\x40"))
	f.Add([]byte("\x04\x03\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k, mode, data := int(data[0]), data[1]%4, data[2:]
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 5e-324}
		var xs []float64
		var f32 []float32
		switch mode {
		case 0, 1:
			for _, b := range data {
				v := float64(b%8) / 8
				if i := int(b) - (256 - len(specials)); i >= 0 {
					v = specials[i]
				}
				xs = append(xs, v)
			}
			if mode == 1 {
				for _, v := range xs {
					f32 = append(f32, float32(v))
				}
				xs = nil
			}
		case 2:
			for ; len(data) >= 4; data = data[4:] {
				f32 = append(f32, math.Float32frombits(binary.LittleEndian.Uint32(data)))
			}
		default:
			for ; len(data) >= 8; data = data[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		}
		var err error
		if len(xs) > 0 {
			err = checkTopKSet(xs, 1+k%len(xs))
		} else if len(f32) > 0 {
			err = checkTopKSet(f32, 1+k%len(f32))
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}
