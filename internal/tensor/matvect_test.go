package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkMatVecTAccRows runs MatVecTAccRows over rows coefficient rows of
// an m×k A on a random column range and fails on the first bit that
// differs from MatVecTAcc run row by row. A, the coefficients and the
// seeded y rows carry zeros of both signs, subnormal-scale values,
// infinities and NaNs (addSpecials, one NaN payload), and one row in
// four of coefficients is mostly zeros, as a ReLU leaves a gradient.
// Each y row holds a −0, which a skipped coefficient must leave as it
// is.
func checkMatVecTAccRows(t *testing.T, rng *rand.Rand, rows, m, k int) {
	t.Helper()
	a := make([]float32, m*k)
	x := make([]float32, rows*m)
	seed := make([]float32, rows*k)
	fillGEMM(rng, a)
	fillGEMM(rng, x)
	fillGEMM(rng, seed)
	addSpecials(rng, a, k)
	if m > 0 {
		addSpecials(rng, x, m)
	}
	addSpecials(rng, seed, k)
	for r := 0; r < rows; r++ {
		if rng.Intn(4) == 0 {
			for o := r * m; o < (r+1)*m; o++ {
				if rng.Intn(4) != 0 {
					x[o] = 0
				}
			}
		}
		seed[r*k+rng.Intn(k)] = float32(math.Copysign(0, -1))
	}
	lo := rng.Intn(k + 1)
	if rng.Intn(2) == 0 {
		lo = 0
	}
	hi := lo + rng.Intn(k-lo+1)
	if rng.Intn(2) == 0 {
		hi = k
	}
	want := slices.Clone(seed)
	for r := 0; r < rows; r++ {
		MatVecTAcc(want[r*k:(r+1)*k], a, x[r*m:(r+1)*m], k, lo, hi)
	}
	got := slices.Clone(seed)
	MatVecTAccRows(got, a, x, rows, m, k, lo, hi)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("MatVecTAccRows rows=%d m=%d k=%d [%d,%d): row %d column %d = %08x, MatVecTAcc %08x",
			rows, m, k, lo, hi, i/k, i%k, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestMatVecTAccRowsBitIdentical pins the K-row input-gradient kernel
// to MatVecTAcc on every kernel path: row counts through ragged and
// whole four-row blocks, column counts below, at and across the
// 16-column tile, and the MLP's ip2 and ip3 shapes.
func TestMatVecTAccRowsBitIdentical(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, rows := range []int{1, 3, 4, 5, 8, 9, 16} {
			for _, m := range []int{0, 1, 3, 4, 5, 13, 64} {
				for _, k := range []int{1, 15, 16, 17, 33, 100} {
					checkMatVecTAccRows(t, rng, rows, m, k)
				}
			}
		}
		checkMatVecTAccRows(t, rng, 16, 304, 512)
		checkMatVecTAccRows(t, rng, 16, 10, 304)
	})
}

// FuzzMatVecTAccRows pins MatVecTAccRows to MatVecTAcc row by row, bit
// for bit, over fuzzed row, coefficient and column counts and column
// ranges, on every kernel path.
func FuzzMatVecTAccRows(f *testing.F) {
	f.Add(uint8(16), uint8(40), uint8(63), int64(1))
	f.Add(uint8(5), uint8(3), uint8(16), int64(2))
	f.Add(uint8(3), uint8(9), uint8(100), int64(3))
	f.Add(uint8(8), uint8(0), uint8(31), int64(4))
	f.Fuzz(func(t *testing.T, rr, mm, kk uint8, seed int64) {
		rows := int(rr%17) + 1
		m := int(mm % 70)
		k := int(kk) + 1
		eachKernelPath(t, func(t *testing.T) {
			checkMatVecTAccRows(t, rand.New(rand.NewSource(seed)), rows, m, k)
		})
	})
}
