package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"hybrimoe/internal/stats"
)

func TestNewMatrixPanics(t *testing.T) {
	for _, c := range []struct{ r, cc int }{{0, 3}, {3, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) should panic", c.r, c.cc)
				}
			}()
			NewMatrix(c.r, c.cc)
		}()
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatVecKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	x := []float32{1, 0, -1}
	dst := make([]float32, 2)
	MatVec(dst, m, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatVecUnrollTail(t *testing.T) {
	// Cols not a multiple of 4 exercises the scalar tail.
	m := NewMatrix(1, 7)
	x := make([]float32, 7)
	for i := 0; i < 7; i++ {
		m.Data[i] = float32(i + 1)
		x[i] = 1
	}
	dst := make([]float32, 1)
	MatVec(dst, m, x)
	if dst[0] != 28 {
		t.Fatalf("MatVec tail = %v, want 28", dst[0])
	}
}

func TestMatVecPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short x should panic")
			}
		}()
		MatVec(make([]float32, 2), m, make([]float32, 2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short dst should panic")
			}
		}()
		MatVec(make([]float32, 1), m, make([]float32, 3))
	}()
}

func TestMatMulKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float32{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float32{5, 6, 7, 8})
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := stats.NewRNG(11)
	a := NewMatrix(4, 4)
	a.FillRandom(rng)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatalf("A·I != A at %d: %v vs %v", i, c.Data[i], a.Data[i])
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

// Property: MatVec agrees with MatMul on single-column right operands.
func TestMatVecMatMulAgreeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		m.FillRandom(rng)
		x := make([]float32, cols)
		for i := range x {
			x[i] = float32(rng.NormMeanStd(0, 1))
		}
		dst := make([]float32, rows)
		MatVec(dst, m, x)
		col := NewMatrix(cols, 1)
		copy(col.Data, x)
		prod := MatMul(m, col)
		for i := 0; i < rows; i++ {
			if math.Abs(float64(dst[i]-prod.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAxpyFill(t *testing.T) {
	a := []float32{1, 2, 3}
	dst := []float32{1, 1, 1}
	Axpy(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Fatalf("Axpy = %v", dst)
	}
	Fill(dst, 9)
	for _, v := range dst {
		if v != 9 {
			t.Fatalf("Fill = %v", dst)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Axpy length mismatch should panic")
			}
		}()
		Axpy(dst, 1, []float32{1})
	}()
}

func TestFillRandomStatistics(t *testing.T) {
	rng := stats.NewRNG(13)
	m := NewMatrix(100, 256)
	m.FillRandom(rng)
	var acc stats.Running
	for _, v := range m.Data {
		acc.Add(float64(v))
	}
	if math.Abs(acc.Mean()) > 0.005 {
		t.Errorf("random init mean = %v, want ≈0", acc.Mean())
	}
	wantStd := 1 / math.Sqrt(256)
	if math.Abs(acc.StdDev()-wantStd) > 0.005 {
		t.Errorf("random init std = %v, want ≈%v", acc.StdDev(), wantStd)
	}
}
