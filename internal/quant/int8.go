package quant

import (
	"fmt"
	"math"

	"hybrimoe/internal/tensor"
)

// Matrix8 is a row-major 8-bit group-quantized matrix, the higher-
// fidelity sibling of the 4-bit Matrix. Mixed-precision offloading
// systems (e.g. HOBBIT, which the paper cites) transfer unimportant
// experts at 4 bits and important ones at 8 bits; this type provides
// the 8-bit leg of that trade-off with a real compute path.
type Matrix8 struct {
	Rows, Cols int
	GroupSize  int
	// Data holds one signed byte per element.
	Data []int8
	// Scales holds groupsPerRow float32 per row.
	Scales []float32
}

func (m *Matrix8) groupsPerRow() int {
	return (m.Cols + m.GroupSize - 1) / m.GroupSize
}

// Quantize8 converts a float32 matrix to symmetric 8-bit groups.
// groupSize <= 0 selects DefaultGroupSize.
func Quantize8(src *tensor.Matrix, groupSize int) *Matrix8 {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	q := &Matrix8{
		Rows:      src.Rows,
		Cols:      src.Cols,
		GroupSize: groupSize,
		Data:      make([]int8, src.Rows*src.Cols),
	}
	q.Scales = make([]float32, src.Rows*q.groupsPerRow())
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		for g := 0; g < q.groupsPerRow(); g++ {
			lo := g * groupSize
			hi := lo + groupSize
			if hi > src.Cols {
				hi = src.Cols
			}
			var amax float64
			for _, v := range row[lo:hi] {
				if a := math.Abs(float64(v)); a > amax {
					amax = a
				}
			}
			scale := float32(amax / 127)
			q.Scales[r*q.groupsPerRow()+g] = scale
			if scale == 0 {
				continue
			}
			for c := lo; c < hi; c++ {
				v := math.Round(float64(row[c]) / float64(scale))
				if v > 127 {
					v = 127
				}
				if v < -128 {
					v = -128
				}
				q.Data[r*src.Cols+c] = int8(v)
			}
		}
	}
	return q
}

// At dequantizes and returns element (r, c).
func (m *Matrix8) At(r, c int) float32 {
	return float32(m.Data[r*m.Cols+c]) * m.Scales[r*m.groupsPerRow()+c/m.GroupSize]
}

// Dequantize reconstructs a float32 matrix.
func (m *Matrix8) Dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := out.Row(r)
		for c := 0; c < m.Cols; c++ {
			row[c] = m.At(r, c)
		}
	}
	return out
}

// MatVec computes dst = m · x on the quantized representation.
func (m *Matrix8) MatVec(dst, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("quant: int8 MatVec x len %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("quant: int8 MatVec dst len %d != rows %d", len(dst), m.Rows))
	}
	gpr := m.groupsPerRow()
	for r := 0; r < m.Rows; r++ {
		var acc float64
		for g := 0; g < gpr; g++ {
			lo := g * m.GroupSize
			hi := lo + m.GroupSize
			if hi > m.Cols {
				hi = m.Cols
			}
			scale := float64(m.Scales[r*gpr+g])
			if scale == 0 {
				continue
			}
			var sub float64
			base := r * m.Cols
			for c := lo; c < hi; c++ {
				sub += float64(m.Data[base+c]) * float64(x[c])
			}
			acc += scale * sub
		}
		dst[r] = float32(acc)
	}
}

// Quantized8SizeBytes predicts the INT8 footprint of a rows×cols matrix.
func Quantized8SizeBytes(rows, cols, groupSize int) int64 {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	groups := (cols + groupSize - 1) / groupSize
	return int64(rows)*int64(cols) + int64(rows)*int64(groups)*4
}

// FidelityStats quantifies reconstruction quality of a quantizer against
// the fp32 reference on a matrix-vector product: the Pearson correlation
// and the relative L2 error of the outputs.
type FidelityStats struct {
	Correlation float64
	RelL2Error  float64
}

// MeasureFidelity runs x through the fp32 matrix and a quantized
// matvec function and compares outputs.
func MeasureFidelity(src *tensor.Matrix, qmv func(dst, x []float32), x []float32) FidelityStats {
	ref := make([]float32, src.Rows)
	tensor.MatVec(ref, src, x)
	got := make([]float32, src.Rows)
	qmv(got, x)
	var dot, nr, ng, errSq float64
	for i := range ref {
		r, g := float64(ref[i]), float64(got[i])
		dot += r * g
		nr += r * r
		ng += g * g
		d := r - g
		errSq += d * d
	}
	out := FidelityStats{}
	if nr > 0 && ng > 0 {
		out.Correlation = dot / math.Sqrt(nr*ng)
	}
	if nr > 0 {
		out.RelL2Error = math.Sqrt(errSq / nr)
	}
	return out
}
