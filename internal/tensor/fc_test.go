package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// fcSpecials are the inputs where a skipped product changes the bits
// when they meet a zero weight: infinities (0·Inf is NaN) and NaNs, one
// with a payload.
var fcSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0x7fc01234),
}

// checkFCForward runs FCForward over m request rows of a k-input,
// n-output layer, split at a random panel, and fails on the first bit
// that differs from MatVecAcc of each row into a copy of the bias.
// Weights, inputs and biases carry zeros and a −0 bias, and most rows
// one special input that meets a zero weight. A row gets at most one:
// where two different NaNs meet, the payload that survives depends on
// the operand order the compiler picks for MatVecAcc's add, which
// differs between its plain and fuzz-instrumented builds.
func checkFCForward(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	w := make([]float32, n*k)
	x := make([]float32, m*k)
	bias := make([]float32, n)
	fillGEMM(rng, w)
	fillGEMM(rng, x)
	fillGEMM(rng, bias)
	bias[rng.Intn(n)] = float32(math.Copysign(0, -1))
	for i := 0; i < m; i++ {
		if rng.Intn(4) != 0 {
			p := rng.Intn(k)
			x[i*k+p] = fcSpecials[rng.Intn(len(fcSpecials))]
			w[rng.Intn(n)*k+p] = 0
		}
	}
	want := make([]float32, m*n)
	for i := 0; i < m; i++ {
		copy(want[i*n:(i+1)*n], bias)
		MatVecAcc(want[i*n:(i+1)*n], w, x[i*k:(i+1)*k], n, k)
	}
	wp := make([]float32, PackFCSize(n, k))
	PackFCRange(wp, w, n, k, 0, FCPanels(n))
	got := make([]float32, m*n)
	for i := range got {
		got[i] = float32(math.NaN())
	}
	np := FCPanels(n)
	mid := rng.Intn(np + 1)
	FCForward(got, x, wp, bias, m, k, n, 0, mid)
	FCForward(got, x, wp, bias, m, k, n, mid, np)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("FCForward m=%d k=%d n=%d split@%d: row %d output %d = %08x, MatVecAcc %08x",
			m, k, n, mid, i/n, i%n, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestFCForwardBitIdentical pins the output-lane float32 kernel to
// MatVecAcc on every kernel path: request counts from a lone row
// through ragged and whole four-row blocks, and output counts below,
// at and across the 32-lane panel, including the MLP's 10 and 304.
func TestFCForwardBitIdentical(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
			for _, n := range []int{1, 10, 31, 32, 33, 304} {
				for _, k := range []int{1, 2, 7, 64, 300} {
					checkFCForward(t, rng, m, k, n)
				}
			}
		}
	})
}

// FuzzGEMMABTAcc pins the float32 output-lane FC kernel, FCForward
// (C = bias + X·Wᵀ with W packed into output-lane panels), to MatVecAcc
// bit for bit, over fuzzed request counts, depths from 1 up and ragged
// output counts, on every kernel path. The name is older than
// FCForward; the committed seed corpus under testdata/fuzz is filed
// under it.
func FuzzGEMMABTAcc(f *testing.F) {
	f.Add(uint8(8), uint8(196), uint8(17), int64(1))
	f.Add(uint8(3), uint8(5), uint8(8), int64(2))
	f.Add(uint8(13), uint8(130), uint8(41), int64(3))
	f.Add(uint8(0), uint8(100), uint8(202), int64(4)) // MLP ip2 shape: n = 304
	f.Add(uint8(4), uint8(101), uint8(6), int64(5))   // MLP ip3 shape: n = 10
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m := int(mm%17) + 1
		k := int(kk)*3 + 1
		n := int(nn)*3/2 + 1
		eachKernelPath(t, func(t *testing.T) {
			checkFCForward(t, rand.New(rand.NewSource(seed)), m, k, n)
		})
	})
}

// FuzzFCForwardInt16 pins the output-lane int16 kernel to
// refMatMulInt16 exactly, over fuzzed request counts, odd and even
// depths and ragged output counts, with operands drawn often at
// ±AccQMax(k), the quantizer's clamp, on every kernel path.
func FuzzFCForwardInt16(f *testing.F) {
	f.Add(uint8(1), uint8(196), uint8(17), int64(1))
	f.Add(uint8(4), uint8(5), uint8(8), int64(2))
	f.Add(uint8(9), uint8(130), uint8(202), int64(3))
	f.Add(uint8(16), uint8(0), uint8(31), int64(4))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m := int(mm%17) + 1
		k := int(kk)*3 + 1
		n := int(nn)*3/2 + 1
		eachKernelPathInt16(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			qmax := min(32767, int(math.Sqrt(float64(math.MaxInt32)/float64(k))))
			draw := func(s []int16) {
				for i := range s {
					switch rng.Intn(4) {
					case 0:
						s[i] = int16(qmax)
					case 1:
						s[i] = int16(-qmax)
					default:
						s[i] = int16(rng.Intn(2*qmax+1) - qmax)
					}
				}
			}
			w := make([]int16, n*k)
			x := make([]int16, m*k)
			draw(w)
			draw(x)
			wt := make([]int16, k*n) // Wᵀ, the reference's B operand
			for o := 0; o < n; o++ {
				for p := 0; p < k; p++ {
					wt[p*n+o] = w[o*k+p]
				}
			}
			want := make([]int32, m*n)
			refMatMulInt16(want, x, wt, m, k, n)
			wp := packFCInt16(w, n, k)
			got := make([]int32, m*n)
			np := FCPanels(n)
			mid := rng.Intn(np + 1)
			FCForwardInt16(got, x, wp, m, k, n, 0, mid)
			FCForwardInt16(got, x, wp, m, k, n, mid, np)
			if i, ok := int32Equal(got, want); !ok {
				t.Fatalf("FCForwardInt16 m=%d k=%d n=%d split@%d: row %d output %d = %d, reference %d",
					m, k, n, mid, i/n, i%n, got[i], want[i])
			}
		})
	})
}

// packFCInt16 packs row-major int16 W (n outputs × k inputs) into the
// output-lane panels FCForwardInt16 reads, as the quantizer does.
func packFCInt16(w []int16, n, k int) []int16 {
	wp := make([]int16, PackFCSizeInt16(n, k))
	for o := 0; o < n; o++ {
		for p, v := range w[o*k : (o+1)*k] {
			wp[PackFCIndexInt16(k, o, p)] = v
		}
	}
	return wp
}

// refPackFC is the output-lane pack written the plain way, one output
// row at a time over a cleared buffer: the reference PackFCRange's
// blocked transpose must reproduce.
func refPackFC(dst, w []float32, n, k int) {
	clear(dst[:PackFCSize(n, k)])
	for o := 0; o < n; o++ {
		panel := dst[(o/fcPanelW)*fcPanelW*k:]
		for p, v := range w[o*k : (o+1)*k] {
			panel[p*fcPanelW+o%fcPanelW] = v
		}
	}
}

// checkPackFCRange packs an n×k W with PackFCRange over a random split
// of its panels, the ranges run in random order into a buffer filled
// with a sentinel and a guard tail, and fails on the first bit that
// differs from refPackFC or the first guard element it touches. W
// holds ±0, subnormals, infinities and NaN payloads, which a pack must
// move bit for bit.
func checkPackFCRange(t *testing.T, rng *rand.Rand, n, k int) {
	t.Helper()
	w := make([]float32, n*k)
	fillGEMM(rng, w)
	for i := range w {
		if rng.Intn(16) == 0 {
			w[i] = fcSpecials[rng.Intn(len(fcSpecials))]
		}
	}
	size := PackFCSize(n, k)
	want := make([]float32, size)
	refPackFC(want, w, n, k)
	const guard = 37
	sentinel := math.Float32frombits(0x7fa5a5a5)
	got := make([]float32, size+guard)
	for i := range got {
		got[i] = sentinel
	}
	np := FCPanels(n)
	cuts := []int{0, np}
	for range rng.Intn(4) {
		cuts = append(cuts, rng.Intn(np+1))
	}
	sort.Ints(cuts)
	for _, r := range rng.Perm(len(cuts) - 1) {
		PackFCRange(got, w, n, k, cuts[r], cuts[r+1])
	}
	if i, ok := bitsEqual(got[:size], want); !ok {
		t.Fatalf("PackFCRange n=%d k=%d cuts %v: element %d (panel %d, input %d, lane %d) = %08x, refPackFC %08x",
			n, k, cuts, i, i/(fcPanelW*k), i%(fcPanelW*k)/fcPanelW, i%fcPanelW,
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
	for i, v := range got[size:] {
		if math.Float32bits(v) != math.Float32bits(sentinel) {
			t.Fatalf("PackFCRange n=%d k=%d wrote %08x past the panels, at %d", n, k, math.Float32bits(v), size+i)
		}
	}
}

// TestPackFCRangeMatchesPackFC pins the blocked pack to refPackFC over
// random panel splits: output counts below, at and across a panel,
// odd and even row counts in the last panel, and input counts below,
// at and across the 8-input block, including the MLP's 784→512.
func TestPackFCRangeMatchesPackFC(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 10, 31, 32, 33, 64, 65, 304, 512} {
		for _, k := range []int{1, 2, 7, 8, 9, 15, 16, 17, 100, 784} {
			checkPackFCRange(t, rng, n, k)
		}
	}
}

// FuzzPackFC pins PackFCRange to refPackFC bit for bit over fuzzed
// output and input counts and random panel splits.
func FuzzPackFC(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(21), uint8(16), int64(2))
	f.Add(uint8(200), uint8(255), int64(3))
	f.Fuzz(func(t *testing.T, nn, kk uint8, seed int64) {
		n := int(nn)*3/2 + 1
		k := int(kk)*3 + 1
		checkPackFCRange(t, rand.New(rand.NewSource(seed)), n, k)
	})
}

// BenchmarkPackFC compares the blocked pack with refPackFC on the
// MLP's 784→512 layer.
func BenchmarkPackFC(b *testing.B) {
	const k, n = 784, 512
	w := make([]float32, n*k)
	fillDense(rand.New(rand.NewSource(5)), w)
	dst := make([]float32, PackFCSize(n, k))
	b.Run("refPackFC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refPackFC(dst, w, n, k)
		}
	})
	b.Run("PackFCRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PackFCRange(dst, w, n, k, 0, FCPanels(n))
		}
	})
}

// BenchmarkFCForward compares, on the MLP's 784→512 layer, one request
// through MatVecAcc with one and eight requests through the packed
// output-lane kernel, at both precisions.
func BenchmarkFCForward(b *testing.B) {
	const k, n = 784, 512
	rng := rand.New(rand.NewSource(5))
	w := make([]float32, n*k)
	fillDense(rng, w)
	wp := make([]float32, PackFCSize(n, k))
	PackFCRange(wp, w, n, k, 0, FCPanels(n))
	wq := make([]int16, n*k)
	fillInt16(rng, wq)
	wpq := packFCInt16(wq, n, k)
	bias := make([]float32, n)
	b.Run("MatVecAcc/K=1", func(b *testing.B) {
		x, y := make([]float32, k), make([]float32, n)
		fillDense(rng, x)
		for i := 0; i < b.N; i++ {
			copy(y, bias)
			MatVecAcc(y, w, x, n, k)
		}
	})
	for _, m := range []int{1, 8} {
		b.Run(fmt.Sprintf("float32/K=%d", m), func(b *testing.B) {
			x, y := make([]float32, m*k), make([]float32, m*n)
			fillDense(rng, x)
			for i := 0; i < b.N; i++ {
				FCForward(y, x, wp, bias, m, k, n, 0, FCPanels(n))
			}
		})
		b.Run(fmt.Sprintf("int16/K=%d", m), func(b *testing.B) {
			x, c := make([]int16, m*k), make([]int32, m*n)
			fillInt16(rng, x)
			for i := 0; i < b.N; i++ {
				FCForwardInt16(c, x, wpq, m, k, n, 0, FCPanels(n))
			}
		})
	}
}
