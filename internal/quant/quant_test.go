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

func TestQuantizeRoundTripError(t *testing.T) {
	rng := stats.NewRNG(21)
	src := randomMatrix(rng, 16, 256)
	q := Quantize(src, 64)
	deq := q.Dequantize()
	var maxRel float64
	for r := 0; r < src.Rows; r++ {
		// Per-group max error should be bounded by scale/2.
		for c := 0; c < src.Cols; c++ {
			diff := math.Abs(float64(src.At(r, c) - deq.At(r, c)))
			scale := float64(q.Scales[r*q.groupsPerRow()+c/q.GroupSize])
			if scale > 0 && diff > scale/2+1e-7 {
				t.Fatalf("(%d,%d): error %v exceeds half scale %v", r, c, diff, scale/2)
			}
			if a := math.Abs(float64(src.At(r, c))); a > 1e-3 {
				if rel := diff / a; rel > maxRel {
					maxRel = rel
				}
			}
		}
	}
	t.Logf("max relative error on significant entries: %.3f", maxRel)
}

func TestQuantizeZeroMatrix(t *testing.T) {
	src := tensor.NewMatrix(4, 32)
	q := Quantize(src, 16)
	deq := q.Dequantize()
	for _, v := range deq.Data {
		if v != 0 {
			t.Fatal("zero matrix must round-trip to zero")
		}
	}
}

func TestQuantizeExtremesClamp(t *testing.T) {
	src := tensor.NewMatrix(1, 4)
	copy(src.Data, []float32{7, -8, 3.5, -3.5})
	q := Quantize(src, 4)
	// amax=8, scale=8/7; value 7 quantizes to round(7/(8/7)) = round(6.125) = 6.
	if got := q.nibble(0, 0); got != 6 {
		t.Errorf("nibble(0,0) = %d, want 6", got)
	}
	if got := q.nibble(0, 1); got != -7 {
		t.Errorf("nibble(0,1) = %d, want -7", got)
	}
	// No nibble may leave [-8, 7].
	for c := 0; c < 4; c++ {
		if v := q.nibble(0, c); v < -8 || v > 7 {
			t.Fatalf("nibble out of range: %d", v)
		}
	}
}

func TestOddColumnCount(t *testing.T) {
	rng := stats.NewRNG(22)
	src := randomMatrix(rng, 3, 33) // odd cols exercise the half-byte tail
	q := Quantize(src, 16)
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

func TestQuantMatVecMatchesDequantized(t *testing.T) {
	rng := stats.NewRNG(23)
	src := randomMatrix(rng, 8, 96)
	q := Quantize(src, 32)
	x := make([]float32, 96)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	got := make([]float32, 8)
	q.MatVec(got, x)
	want := make([]float32, 8)
	tensor.MatVec(want, q.Dequantize(), x)
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("QMatVec[%d] = %v, dequantized path = %v", i, got[i], want[i])
		}
	}
}

func TestQuantMatVecApproximatesFP32(t *testing.T) {
	rng := stats.NewRNG(24)
	src := randomMatrix(rng, 16, 512)
	q := Quantize(src, 128)
	x := make([]float32, 512)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
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

func TestQuantMatVecPanics(t *testing.T) {
	q := Quantize(tensor.NewMatrix(2, 8), 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short x should panic")
			}
		}()
		q.MatVec(make([]float32, 2), make([]float32, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short dst should panic")
			}
		}()
		q.MatVec(make([]float32, 1), make([]float32, 8))
	}()
}

func TestSizeAccounting(t *testing.T) {
	q := Quantize(tensor.NewMatrix(4, 128), 128)
	// 4 rows × 64 packed bytes + 4 rows × 1 group × 4 bytes scale.
	want := int64(4*64 + 4*4)
	if got := q.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	if got := QuantizedSizeBytes(4, 128, 128); got != want {
		t.Fatalf("QuantizedSizeBytes = %d, want %d", got, want)
	}
}

func TestQuantizedSizeBytesOddShapes(t *testing.T) {
	// 5 cols → 3 packed bytes/row; group 4 → 2 groups/row.
	if got := QuantizedSizeBytes(2, 5, 4); got != int64(2*3+2*2*4) {
		t.Fatalf("odd-shape size = %d", got)
	}
	// groupSize<=0 selects the default.
	if got, want := QuantizedSizeBytes(1, 128, 0), QuantizedSizeBytes(1, 128, DefaultGroupSize); got != want {
		t.Fatalf("default group size not applied: %d vs %d", got, want)
	}
}

// Property: round-trip error never exceeds half the group scale, for any
// shape and group size.
func TestQuantRoundTripBoundQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(64)
		gs := 1 + rng.Intn(32)
		src := randomMatrix(rng, rows, cols)
		q := Quantize(src, gs)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				scale := float64(q.Scales[r*q.groupsPerRow()+c/q.GroupSize])
				diff := math.Abs(float64(src.At(r, c) - q.At(r, c)))
				if diff > scale/2+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
