package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

// TestRankNetworkSortsZeroOneInputs checks the ranking networks by the
// 0-1 principle: a comparator network sorts every input exactly when it
// sorts every input of 0s and 1s. rankKeys must sort all 2^n of them at
// every n from 1 to 16, which runs the 1-, 2-, 4-, 8- and 16-key
// networks on every 0/1 input and the padding on every shorter row. The
// networks hold Batcher's comparator counts.
func TestRankNetworkSortsZeroOneInputs(t *testing.T) {
	for j, want := range []int{0, 1, 5, 19, 63, 191, 543, 1471} {
		if len(networks[j]) != want {
			t.Fatalf("the %d-key network has %d comparators; want %d", 1<<j, len(networks[j]), want)
		}
	}
	keys := make([]uint64, maxRankKeys)
	for n := 1; n <= 16; n++ {
		for bits := 0; bits < 1<<n; bits++ {
			ones := 0
			for i := range n {
				keys[i] = uint64(bits >> i & 1)
				ones += bits >> i & 1
			}
			rankKeys(keys, n)
			for i := range n {
				want := uint64(0)
				if i >= n-ones {
					want = 1
				}
				if keys[i] != want {
					t.Fatalf("n=%d, input %0*b: output %v not sorted", n, n, bits, keys[:n])
				}
			}
		}
	}
}

// TestRankNetworkSortsRandomKeys runs rankKeys on random keys with
// repeated values, and all-ones keys among them, at the 32-, 64- and
// 128-key networks, at padded lengths between them, and past the widest
// network, where slices.Sort takes over; each output must equal
// slices.Sort's.
func TestRankNetworkSortsRandomKeys(t *testing.T) {
	rng := stats.NewRNG(7)
	keys := make([]uint64, 300)
	for _, n := range []int{17, 32, 33, 64, 100, 128, 129, 300} {
		for trial := range 50 {
			for i := range n {
				keys[i] = uint64(rng.Intn(n/4 + 1))
				if trial%5 == 0 && rng.Intn(8) == 0 {
					keys[i] = math.MaxUint64
				}
			}
			want := slices.Clone(keys[:n])
			slices.Sort(want)
			rankKeys(keys, n)
			if !slices.Equal(keys[:n], want) {
				t.Fatalf("n=%d trial %d: rankKeys gave %v, slices.Sort %v", n, trial, keys[:n], want)
			}
		}
	}
}

// TestHiKeyOrderMatchesTopKInto ranks rows through hiKey and rankKeys
// and checks, at every k, that the first k+1 ranks hold the positions
// TopKInto selects: rows with tied values, -0 beside +0, negative
// values, infinities and subnormals.
func TestHiKeyOrderMatchesTopKInto(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	rows := [][]float32{
		{1, 1, 1, 1},
		{0, negZero, 0, negZero, 0},
		{negZero, 0, negZero},
		{-1, -3, -2, -3, -1, -0.5},
		{2, -2, negZero, 1, 0, -1, 2, 0},
		{-inf, inf, 0, -inf, inf, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32},
		{math.MaxFloat32, -math.MaxFloat32, 3, 3, -3, -3, 3, 0, negZero, 1e-40, -1e-40},
		{5},
	}
	rng := stats.NewRNG(11)
	for range 20 {
		row := make([]float32, 1+rng.Intn(70))
		for i := range row {
			row[i] = float32(rng.Intn(7)-3) / 2
			if row[i] == 0 && rng.Intn(2) == 0 {
				row[i] = negZero
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		if err := checkRank(row); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRankMatchesTopKInto runs checkRank on float32 rows of 1 to 80
// entries decoded from the input. The first byte picks the encoding:
// one byte per entry from eight tied levels, both zeros and negative
// values, or four bytes of raw float32 bits per entry, a NaN read as
// its sign's infinity.
func FuzzRankMatchesTopKInto(f *testing.F) {
	f.Add([]byte("\x00\x03\x00\x01\x07\x03\x03\x05\x03\x00"))
	f.Add([]byte("\x00\x08\x09\x00\x01\x0f\x07"))
	f.Add([]byte("\x01\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x80\xbf\x00\x00\x80\x7f\x00\x00\x80\xff"))
	f.Add([]byte("\x01\x01\x00\x00\x00\x01\x00\x00\x80\x00\x00\xc0\x7f\xff\xff\x7f\x7f"))
	levels := []float32{-2, -1, -0.5, 0, 0.5, 1, 2, float32(math.Copysign(0, -1))}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		raw, data := data[0]&1 == 1, data[1:]
		var row []float32
		for len(data) > 0 && len(row) < 80 {
			if !raw {
				row = append(row, levels[data[0]%8])
				data = data[1:]
				continue
			}
			if len(data) < 4 {
				break
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(data))
			if x != x {
				x = float32(math.Copysign(math.Inf(1), float64(x)))
			}
			row = append(row, x)
			data = data[4:]
		}
		if len(row) == 0 {
			return
		}
		if err := checkRank(row); err != nil {
			t.Fatal(err)
		}
	})
}

// checkRank ranks row through hiKey and rankKeys and reports the first
// k at which the positions at ranks 0 to k differ from TopKInto's
// selection of k+1, for every k+1 from 1 to the row's length.
func checkRank(row []float32) error {
	keys := make([]uint64, max(len(row), maxRankKeys))
	for i, x := range row {
		keys[i] = hiKey(x, i)
	}
	rankKeys(keys, len(row))
	got := make([]int, len(row))
	for r, key := range keys[:len(row)] {
		got[r] = int(uint32(key))
	}
	var want []int
	for n := 1; n <= len(row); n++ {
		want = tensor.TopKInto(want, row, n)
		if !slices.Equal(got[:n], want) {
			return fmt.Errorf("row %v: ranks 0 to %d hold positions %v; TopKInto selects %v", row, n-1, got[:n], want)
		}
	}
	return nil
}
