// Package tensor implements the minimal dense linear-algebra kernels the
// functional MoE path needs: float32 matrices, GEMV/GEMM, softmax, top-k
// selection, RMSNorm and SiLU. Weights are float32 (the quantized INT4
// path lives in internal/quant); accumulation is float64 for stability.
//
// These kernels serve two purposes in the reproduction: they execute the
// tiny functional models used in tests and examples, and they provide the
// measured per-FLOP CPU cost that calibrates the hardware simulator.
package tensor

import (
	"fmt"

	"hybrimoe/internal/stats"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// FillRandom initialises the matrix with scaled Gaussian entries
// (Xavier-style: std = 1/sqrt(cols)) from the supplied generator.
func (m *Matrix) FillRandom(rng *stats.RNG) {
	std := 1.0 / float64(m.Cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMeanStd(0, stdSqrt(std)))
	}
}

func stdSqrt(v float64) float64 {
	// sqrt via Newton iterations would be silly; math.Sqrt is fine, this
	// indirection just keeps the import list honest in one place.
	return sqrt(v)
}

// MatVec computes dst = m · x. dst must have length m.Rows and x length
// m.Cols; the function panics otherwise.
func MatVec(dst []float32, m *Matrix, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec x len %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec dst len %d != rows %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var acc float64
		// Unrolled by 4: measurable on the calibration path.
		j := 0
		for ; j+4 <= m.Cols; j += 4 {
			acc += float64(row[j])*float64(x[j]) +
				float64(row[j+1])*float64(x[j+1]) +
				float64(row[j+2])*float64(x[j+2]) +
				float64(row[j+3])*float64(x[j+3])
		}
		for ; j < m.Cols; j++ {
			acc += float64(row[j]) * float64(x[j])
		}
		dst[i] = float32(acc)
	}
}

// MatMul computes C = A · B and returns C. It panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// Axpy computes dst += alpha * x elementwise.
func Axpy(dst []float32, alpha float32, x []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(dst), len(x)))
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}
