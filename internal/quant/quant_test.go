package quant

import (
	"math"
	"testing"
	"testing/quick"

	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

func randomMatrix(rng *stats.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	m.FillRandom(rng)
	return m
}

func randomVector(rng *stats.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	return x
}

// checkRoundTrip asserts every element of q reconstructs src to within
// half its group's scale and returns the largest relative error on
// significant entries.
func checkRoundTrip(t *testing.T, src *tensor.Matrix, q *Matrix) float64 {
	t.Helper()
	var maxRel float64
	for r := 0; r < src.Rows; r++ {
		for c := 0; c < src.Cols; c++ {
			diff := math.Abs(float64(src.At(r, c) - q.At(r, c)))
			scale := float64(q.Scales[r*q.groupsPerRow()+c/q.GroupSize])
			if scale > 0 && diff > scale/2+1e-7 {
				t.Fatalf("%d-bit (%d,%d): error %v exceeds half scale %v", q.Bits, r, c, diff, scale/2)
			}
			if a := math.Abs(float64(src.At(r, c))); a > 1e-3 {
				maxRel = max(maxRel, diff/a)
			}
		}
	}
	return maxRel
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := stats.NewRNG(21)
	src := randomMatrix(rng, 16, 256)
	maxRel := checkRoundTrip(t, src, Quantize(src, 4, 64))
	t.Logf("max relative error on significant entries: %.3f", maxRel)
}

func TestQuantize8RoundTrip(t *testing.T) {
	rng := stats.NewRNG(31)
	src := randomMatrix(rng, 8, 96)
	checkRoundTrip(t, src, Quantize(src, 8, 32))
}

func TestQuantizeZeroMatrix(t *testing.T) {
	src := tensor.NewMatrix(4, 32)
	for _, v := range Quantize(src, 4, 16).Dequantize().Data {
		if v != 0 {
			t.Fatal("zero matrix must round-trip to zero")
		}
	}
}

func TestQuantize8ZeroAndDefaults(t *testing.T) {
	src := tensor.NewMatrix(2, 256)
	q := Quantize(src, 8, 0)
	if q.GroupSize != DefaultGroupSize {
		t.Fatalf("default group size not applied: %d", q.GroupSize)
	}
	for _, v := range q.Dequantize().Data {
		if v != 0 {
			t.Fatal("zero matrix must round-trip to zero")
		}
	}
}

func TestQuantizeRejectsOtherWidths(t *testing.T) {
	for _, bits := range []int{0, 2, 3, 5, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantize at %d bits did not panic", bits)
				}
			}()
			Quantize(tensor.NewMatrix(1, 4), bits, 4)
		}()
	}
}

func TestQuantizeExtremesClamp(t *testing.T) {
	src := tensor.NewMatrix(1, 4)
	copy(src.Data, []float32{7, -8, 3.5, -3.5})
	for _, tc := range []struct {
		bits          int
		first, second int8
	}{
		// amax=8, scale=8/7: 7 quantizes to round(6.125) = 6.
		{4, 6, -7},
		// amax=8, scale=8/127: 7 quantizes to round(111.125) = 111.
		{8, 111, -127},
	} {
		q := Quantize(src, tc.bits, 4)
		if q.Data[0] != tc.first || q.Data[1] != tc.second {
			t.Errorf("%d-bit: values %d, %d, want %d, %d", tc.bits, q.Data[0], q.Data[1], tc.first, tc.second)
		}
	}
}

func TestOddColumnCount(t *testing.T) {
	rng := stats.NewRNG(22)
	src := randomMatrix(rng, 3, 33) // odd cols leave a half-byte tail in the 4-bit footprint
	q := Quantize(src, 4, 16)
	deq := q.Dequantize()
	if deq.Rows != 3 || deq.Cols != 33 {
		t.Fatalf("round-trip shape %dx%d", deq.Rows, deq.Cols)
	}
	// Spot-check sign preservation on large entries.
	for r := 0; r < 3; r++ {
		for c := 0; c < 33; c++ {
			s, d := src.At(r, c), deq.At(r, c)
			if math.Abs(float64(s)) > 0.05 && s*d < 0 {
				t.Fatalf("sign flipped at (%d,%d): %v -> %v", r, c, s, d)
			}
		}
	}
}

// checkMatVecMatchesDequantized compares the on-the-fly MatVec with the
// fp32 product of the dequantized matrix.
func checkMatVecMatchesDequantized(t *testing.T, bits int, seed uint64, rows, cols, groupSize int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	q := Quantize(randomMatrix(rng, rows, cols), bits, groupSize)
	x := randomVector(rng, cols)
	got := make([]float32, rows)
	q.MatVec(got, x)
	want := make([]float32, rows)
	tensor.MatVec(want, q.Dequantize(), x)
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("%d-bit MatVec[%d] = %v, dequantized path = %v", bits, i, got[i], want[i])
		}
	}
}

func TestQuantMatVecMatchesDequantized(t *testing.T) {
	checkMatVecMatchesDequantized(t, 4, 23, 8, 96, 32)
}

func TestInt8MatVecMatchesDequantized(t *testing.T) {
	checkMatVecMatchesDequantized(t, 8, 33, 6, 64, 16)
}

func TestQuantMatVecApproximatesFP32(t *testing.T) {
	rng := stats.NewRNG(24)
	src := randomMatrix(rng, 16, 512)
	q := Quantize(src, 4, 128)
	x := randomVector(rng, 512)
	qOut := make([]float32, 16)
	fOut := make([]float32, 16)
	q.MatVec(qOut, x)
	tensor.MatVec(fOut, src, x)
	// INT4 output should correlate strongly with fp32 output.
	qf := make([]float64, 16)
	ff := make([]float64, 16)
	for i := range qOut {
		qf[i], ff[i] = float64(qOut[i]), float64(fOut[i])
	}
	if corr := stats.PearsonCorrelation(qf, ff); corr < 0.98 {
		t.Fatalf("INT4/fp32 output correlation = %v, want > 0.98", corr)
	}
}

func TestInt8MoreAccurateThanInt4(t *testing.T) {
	rng := stats.NewRNG(32)
	src := randomMatrix(rng, 32, 256)
	x := randomVector(rng, 256)
	f4 := MeasureFidelity(src, Quantize(src, 4, 128).MatVec, x)
	f8 := MeasureFidelity(src, Quantize(src, 8, 128).MatVec, x)
	t.Logf("int4: corr=%.5f relL2=%.4f; int8: corr=%.5f relL2=%.4f",
		f4.Correlation, f4.RelL2Error, f8.Correlation, f8.RelL2Error)
	if f8.RelL2Error >= f4.RelL2Error {
		t.Fatalf("int8 error %v should be below int4 error %v", f8.RelL2Error, f4.RelL2Error)
	}
	if f8.Correlation <= f4.Correlation {
		t.Fatalf("int8 correlation %v should beat int4 %v", f8.Correlation, f4.Correlation)
	}
	if f8.Correlation < 0.999 {
		t.Fatalf("int8 correlation %v too low", f8.Correlation)
	}
}

// checkMatVecPanics asserts MatVec rejects a short x and a short dst.
func checkMatVecPanics(t *testing.T, bits int) {
	t.Helper()
	q := Quantize(tensor.NewMatrix(2, 8), bits, 8)
	for _, tc := range []struct {
		name   string
		dst, x int
	}{{"short x", 2, 4}, {"short dst", 1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-bit: %s should panic", bits, tc.name)
				}
			}()
			q.MatVec(make([]float32, tc.dst), make([]float32, tc.x))
		}()
	}
}

func TestQuantMatVecPanics(t *testing.T) { checkMatVecPanics(t, 4) }

func TestInt8MatVecPanics(t *testing.T) { checkMatVecPanics(t, 8) }

// TestSizeAccounting ties the predicted footprint to a materialised
// matrix: its values packed at Bits bits plus four bytes per scale.
func TestSizeAccounting(t *testing.T) {
	for _, bits := range []int{4, 8} {
		q := Quantize(tensor.NewMatrix(4, 128), bits, 128)
		want := int64(len(q.Data)*bits/8 + 4*len(q.Scales))
		if got := SizeBytes(q.Rows, q.Cols, q.Bits, q.GroupSize); got != want {
			t.Fatalf("%d-bit SizeBytes = %d, want %d", bits, got, want)
		}
	}
	// 4 rows × 64 packed bytes + 4 rows × 1 group × 4 bytes scale.
	if got, want := SizeBytes(4, 128, 4, 128), int64(4*64+4*4); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestQuantizedSizeBytesOddShapes(t *testing.T) {
	// 5 cols → 3 packed bytes/row at 4 bits, 5 at 8; group 4 → 2 groups/row.
	if got := SizeBytes(2, 5, 4, 4); got != int64(2*3+2*2*4) {
		t.Fatalf("4-bit odd-shape size = %d", got)
	}
	if got := SizeBytes(2, 5, 8, 4); got != int64(2*5+2*2*4) {
		t.Fatalf("8-bit odd-shape size = %d", got)
	}
	// groupSize<=0 selects the default.
	if got, want := SizeBytes(1, 128, 4, 0), SizeBytes(1, 128, 4, DefaultGroupSize); got != want {
		t.Fatalf("default group size not applied: %d vs %d", got, want)
	}
}

func TestInt8TwiceTheBytesOfInt4(t *testing.T) {
	b4 := SizeBytes(64, 256, 4, 128)
	b8 := SizeBytes(64, 256, 8, 128)
	// INT8 weights are exactly 2x the nibble storage; scales match.
	wantWeights4 := int64(64 * 128)
	wantWeights8 := int64(64 * 256)
	if b4-wantWeights4 != b8-wantWeights8 {
		t.Fatalf("scale overhead differs: %d vs %d", b4, b8)
	}
	if b8 <= b4 {
		t.Fatalf("int8 (%d B) should exceed int4 (%d B)", b8, b4)
	}
}

// Property: at either width, every stored value stays in range and the
// round-trip error never exceeds half the group scale, for any shape
// and group size.
func TestQuantRoundTripBoundQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(64)
		gs := 1 + rng.Intn(32)
		bits := 4 + 4*rng.Intn(2)
		src := randomMatrix(rng, rows, cols)
		q := Quantize(src, bits, gs)
		lo, hi := -(1 << (bits - 1)), 1<<(bits-1)-1
		for i, v := range q.Data {
			if int(v) < lo || int(v) > hi {
				return false
			}
			r, c := i/cols, i%cols
			scale := float64(q.Scales[r*q.groupsPerRow()+c/q.GroupSize])
			if diff := math.Abs(float64(src.At(r, c) - q.At(r, c))); diff > scale/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMeasureFidelityIdentity(t *testing.T) {
	rng := stats.NewRNG(34)
	src := randomMatrix(rng, 4, 32)
	x := randomVector(rng, 32)
	// fp32 against itself: perfect.
	f := MeasureFidelity(src, func(dst, x []float32) { tensor.MatVec(dst, src, x) }, x)
	if math.Abs(f.Correlation-1) > 1e-9 || f.RelL2Error > 1e-9 {
		t.Fatalf("identity fidelity broken: %+v", f)
	}
}
