// Package quant implements symmetric 4-bit group quantization of float32
// weight matrices. It stands in for the Marlin INT4 kernels the paper
// uses via llama.cpp: expert weights are stored as packed nibbles with a
// per-group float32 scale, cutting the transferred bytes roughly 8× vs
// fp32 (4× vs the fp16 the paper starts from) while keeping a real
// dequantize + matvec compute path for the functional model.
package quant

import (
	"fmt"
	"math"

	"hybrimoe/internal/tensor"
)

// DefaultGroupSize matches the 128-wide groups used by Marlin/GPTQ-style
// kernels.
const DefaultGroupSize = 128

// Matrix is a row-major 4-bit quantized matrix. Each row is divided into
// groups of GroupSize consecutive elements sharing one float32 scale.
// Values are stored as signed nibbles in [-8, 7], two per byte, low
// nibble first.
type Matrix struct {
	Rows, Cols int
	GroupSize  int
	// Packed nibbles: ceil(Cols/2) bytes per row.
	Packed []byte
	// Scales: groupsPerRow() float32 per row.
	Scales []float32
}

func (m *Matrix) groupsPerRow() int {
	return (m.Cols + m.GroupSize - 1) / m.GroupSize
}

func (m *Matrix) bytesPerRow() int { return (m.Cols + 1) / 2 }

// SizeBytes reports the storage footprint (packed weights + scales),
// which is what crosses the PCIe link in the offloading scenario.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.Packed)) + int64(len(m.Scales))*4
}

// Quantize converts a float32 matrix to 4-bit groups of the given size.
// groupSize <= 0 selects DefaultGroupSize.
func Quantize(src *tensor.Matrix, groupSize int) *Matrix {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	q := &Matrix{
		Rows:      src.Rows,
		Cols:      src.Cols,
		GroupSize: groupSize,
	}
	q.Packed = make([]byte, src.Rows*q.bytesPerRow())
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
			scale := float32(amax / 7)
			q.Scales[r*q.groupsPerRow()+g] = scale
			if scale == 0 {
				continue // zero group packs as zero nibbles
			}
			for c := lo; c < hi; c++ {
				qv := int8(math.Round(float64(row[c]) / float64(scale)))
				if qv > 7 {
					qv = 7
				}
				if qv < -8 {
					qv = -8
				}
				q.setNibble(r, c, qv)
			}
		}
	}
	return q
}

func (m *Matrix) setNibble(r, c int, v int8) {
	idx := r*m.bytesPerRow() + c/2
	nib := byte(v) & 0x0f
	if c%2 == 0 {
		m.Packed[idx] = (m.Packed[idx] &^ 0x0f) | nib
	} else {
		m.Packed[idx] = (m.Packed[idx] &^ 0xf0) | nib<<4
	}
}

func (m *Matrix) nibble(r, c int) int8 {
	idx := r*m.bytesPerRow() + c/2
	var nib byte
	if c%2 == 0 {
		nib = m.Packed[idx] & 0x0f
	} else {
		nib = m.Packed[idx] >> 4
	}
	// Sign-extend the 4-bit value.
	return int8(nib<<4) >> 4
}

// At dequantizes and returns element (r, c).
func (m *Matrix) At(r, c int) float32 {
	scale := m.Scales[r*m.groupsPerRow()+c/m.GroupSize]
	return float32(m.nibble(r, c)) * scale
}

// Dequantize reconstructs a float32 matrix.
func (m *Matrix) Dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := out.Row(r)
		for c := 0; c < m.Cols; c++ {
			row[c] = m.At(r, c)
		}
	}
	return out
}

// MatVec computes dst = m · x directly on the quantized representation,
// dequantizing on the fly group by group. Panics on shape mismatch.
func (m *Matrix) MatVec(dst, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("quant: MatVec x len %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("quant: MatVec dst len %d != rows %d", len(dst), m.Rows))
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
			for c := lo; c < hi; c++ {
				sub += float64(m.nibble(r, c)) * float64(x[c])
			}
			acc += scale * sub
		}
		dst[r] = float32(acc)
	}
}

// QuantizedSizeBytes predicts the packed footprint of a rows×cols matrix
// without materialising it: nibble storage plus per-group scales. The
// hardware model uses this to size expert transfers.
func QuantizedSizeBytes(rows, cols, groupSize int) int64 {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	groups := (cols + groupSize - 1) / groupSize
	return int64(rows)*int64((cols+1)/2) + int64(rows)*int64(groups)*4
}
