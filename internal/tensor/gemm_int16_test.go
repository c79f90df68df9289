package tensor

import (
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/benchpair"
)

// fillInt16 fills a slice with quantized-range values: a mix of zeros,
// small values, and full-range ±32767 extremes so accumulator growth
// and the inert-zero property both get exercised.
func fillInt16(rng *rand.Rand, s []int16) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = int16(rng.Intn(7) - 3)
		case 2:
			if rng.Intn(2) == 0 {
				s[i] = 32767
			} else {
				s[i] = -32767
			}
		default:
			s[i] = int16(rng.Intn(65535) - 32767)
		}
	}
}

func int32Equal(a, b []int32) (int, bool) {
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// gemmInt16 packs int16 A (m×k) and B (k×n) into ap and bp, which hold
// PackASizeInt16(m, k) and PackBSizeInt16(k, n) elements, and computes
// the int32 product C = A·B from them, packing included.
func gemmInt16(c []int32, ap, bp, a, b []int16, m, k, n int) {
	PackAInt16(ap, a, m, k)
	PackBInt16(bp, b, k, n)
	MatMulPackedInt16(c, ap, bp, m, k, n, 0, m)
}

// matMulInt16 is gemmInt16 into fresh packing scratch.
func matMulInt16(c []int32, a, b []int16, m, k, n int) {
	gemmInt16(c, make([]int16, PackASizeInt16(m, k)), make([]int16, PackBSizeInt16(k, n)), a, b, m, k, n)
}

// checkShapeInt16 runs the packed int16 path against the reference
// loops for one (m, k, n) shape and fails on the first difference —
// exact int32 agreement, no tolerance.
func checkShapeInt16(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	a := make([]int16, m*k)
	b := make([]int16, k*n)
	fillInt16(rng, a)
	fillInt16(rng, b)

	got := make([]int32, m*n)
	want := make([]int32, m*n)
	refMatMulInt16(want, a, b, m, k, n)

	// The whole product over a quad-aligned row split, like a worker
	// fan-out would produce.
	ap := make([]int16, PackASizeInt16(m, k))
	bp := make([]int16, PackBSizeInt16(k, n))
	PackAInt16(ap, a, m, k)
	PackBInt16(bp, b, k, n)
	mid := (m / 2 / GEMMRowGrain) * GEMMRowGrain
	for i := range got {
		got[i] = -0x7badbeef
	}
	MatMulPackedInt16(got, ap, bp, m, k, n, 0, mid)
	MatMulPackedInt16(got, ap, bp, m, k, n, mid, m)
	if i, ok := int32Equal(got, want); !ok {
		t.Fatalf("MatMulPackedInt16 m=%d k=%d n=%d split@%d: element %d differs: %d vs %d",
			m, k, n, mid, i, got[i], want[i])
	}
}

// eachKernelPathInt16 runs fn once per int16 microkernel implementation
// available on this host (portable Go, and AVX2 when present).
func eachKernelPathInt16(t *testing.T, fn func(t *testing.T)) {
	avx2 := useAVX2
	defer func() { useAVX2 = avx2 }()
	useAVX2 = false
	t.Run("go", fn)
	if avx2 {
		useAVX2 = true
		t.Run("avx2", fn)
	}
}

// TestInt16KernelsExact is the int16 analogue of the float
// bit-identity property: across randomized shapes including ragged
// tails, the packed kernels must agree with the reference loops
// exactly, on every kernel path.
func TestInt16KernelsExact(t *testing.T) {
	eachKernelPathInt16(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		shapes := [][3]int{
			{1, 1, 1}, {1, 7, 1}, {4, 4, 8}, {8, 16, 16},
			{5, 9, 6}, {3, 5, 2}, {4, 1, 9}, {7, 13, 11},
			{16, 25, 196}, {9, 25, 196}, {12, 75, 64}, {1, 400, 10},
			{8, 600, 24}, {4, 1030, 16}, {5, 1025, 9},
		}
		for _, s := range shapes {
			checkShapeInt16(t, rng, s[0], s[1], s[2])
		}
		for iter := 0; iter < 50; iter++ {
			m := 1 + rng.Intn(24)
			k := 1 + rng.Intn(48)
			n := 1 + rng.Intn(48)
			checkShapeInt16(t, rng, m, k, n)
		}
	})
}

// TestInt16AccumulatorExtremes drives the accumulators with worst-case
// magnitude products (±32767²) long enough to wrap int32, pinning that
// packed and reference paths wrap identically — the determinism
// contract holds even outside the range a calibrated network produces.
func TestInt16AccumulatorExtremes(t *testing.T) {
	eachKernelPathInt16(t, func(t *testing.T) {
		m, k, n := 4, 4096, 8
		a := make([]int16, m*k)
		b := make([]int16, k*n)
		for i := range a {
			a[i] = 32767
		}
		for i := range b {
			if (i/n)%2 == 0 {
				b[i] = 32767
			} else {
				b[i] = -32767
			}
		}
		b[0] = -32767 // break the alternation so sums drift and wrap
		got := make([]int32, m*n)
		want := make([]int32, m*n)
		matMulInt16(got, a, b, m, k, n)
		refMatMulInt16(want, a, b, m, k, n)
		if i, ok := int32Equal(got, want); !ok {
			t.Fatalf("wraparound element %d differs: %d vs %d", i, got[i], want[i])
		}
	})
}

// packBInt16Ref is the packed int16 B layout by its definition:
// panel[p2*32 + c*2 + s] = B[2·p2+s][j0+c], zero past k and n.
func packBInt16Ref(b []int16, k, n int) []int16 {
	kp2 := PackPairs(k)
	out := make([]int16, PackBSizeInt16(k, n))
	for jp := 0; jp < PackPanels(n); jp++ {
		for p2 := 0; p2 < kp2; p2++ {
			for c := 0; c < gemmPanelW; c++ {
				for s := 0; s < gemmPairW; s++ {
					if p, j := 2*p2+s, jp*gemmPanelW+c; p < k && j < n {
						out[((jp*kp2+p2)*gemmPanelW+c)*gemmPairW+s] = b[p*n+j]
					}
				}
			}
		}
	}
	return out
}

// TestPackRangesInt16MatchFull checks the int16 range packers are pure
// tilings of the full packs, and that both packs, and the portable
// bodies of their amd64 assembly, write the layouts their definitions
// give.
func TestPackRangesInt16MatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kn := range [][2]int{{5, 7}, {9, 16}, {3, 1}, {25, 196}, {13, 40}, {1, 9}, {40, 33}} {
		k, n := kn[0], kn[1]
		b := make([]int16, k*n)
		fillInt16(rng, b)
		full := make([]int16, PackBSizeInt16(k, n))
		PackBInt16(full, b, k, n)
		ref := packBInt16Ref(b, k, n)
		portable := append([]int16(nil), full...)
		for jp := 0; jp < n/gemmPanelW; jp++ {
			packPairStepsGo(portable[jp*PackPairs(k)*gemmPanelW*gemmPairW:], b[jp*gemmPanelW:], n, k/gemmPairW)
		}
		for i := range ref {
			if full[i] != ref[i] || portable[i] != ref[i] {
				t.Fatalf("PackBInt16 k=%d n=%d: element %d = %d (portable interleave %d), layout says %d", k, n, i, full[i], portable[i], ref[i])
			}
		}
		split := make([]int16, PackBSizeInt16(k, n))
		np := PackPanels(n)
		mid := np / 2
		PackBRangeInt16(split, b, k, n, 0, mid)
		PackBRangeInt16(split, b, k, n, mid, np)
		for i := range full {
			if split[i] != full[i] {
				t.Fatalf("PackBRangeInt16 k=%d n=%d: element %d differs", k, n, i)
			}
		}

		m := n // reuse the shape as an m×k A operand
		a := make([]int16, m*k)
		fillInt16(rng, a)
		fullA := make([]int16, PackASizeInt16(m, k))
		PackAInt16(fullA, a, m, k)
		splitA := make([]int16, PackASizeInt16(m, k))
		midRow := (m / 2 / GEMMRowGrain) * GEMMRowGrain
		PackARangeInt16(splitA, a, m, k, 0, midRow)
		PackARangeInt16(splitA, a, m, k, midRow, m)
		refA := packAInt16Ref(a, m, k)
		portableA := append([]int16(nil), fullA...)
		for q := 0; q < m/gemmQuadH; q++ {
			packQuadPairsGo(portableA[q*PackPairs(k)*gemmQuadH*gemmPairW:], a[q*gemmQuadH*k:], k, k/gemmPairW)
		}
		for i := range fullA {
			if splitA[i] != fullA[i] {
				t.Fatalf("PackARangeInt16 m=%d k=%d: element %d differs", m, k, i)
			}
			if fullA[i] != refA[i] || portableA[i] != refA[i] {
				t.Fatalf("PackAInt16 m=%d k=%d: element %d = %d (portable %d), layout says %d", m, k, i, fullA[i], portableA[i], refA[i])
			}
		}
	}
}

// packAInt16Ref is the packed int16 A layout by its definition:
// quad[p2*8 + r*2 + s] = A[i0+r][2·p2+s], zero past m and k.
func packAInt16Ref(a []int16, m, k int) []int16 {
	kp2 := PackPairs(k)
	out := make([]int16, PackASizeInt16(m, k))
	for q := 0; q < PackQuads(m); q++ {
		for p2 := 0; p2 < kp2; p2++ {
			for r := 0; r < gemmQuadH; r++ {
				for s := 0; s < gemmPairW; s++ {
					if i, p := q*gemmQuadH+r, 2*p2+s; i < m && p < k {
						out[((q*kp2+p2)*gemmQuadH+r)*gemmPairW+s] = a[i*k+p]
					}
				}
			}
		}
	}
	return out
}

// TestMatVecAccInt32Exact pins the quantized FC product — weight rows
// packed into output-lane panels (PackFCIndexInt16), K input rows,
// FCForwardInt16 over a random panel split — to the naive int64 dot of
// every (output, input row) pair. Operands stay within the
// accumulator-safe range for their depth, as the quantizer clamps
// them, so the int32 product must equal the int64 dot exactly.
func TestMatVecAccInt32Exact(t *testing.T) {
	eachKernelPathInt16(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for iter := 0; iter < 80; iter++ {
			m := 1 + rng.Intn(70)
			k := 1 + rng.Intn(40)
			kb := 1 + rng.Intn(17) // input rows: whole and ragged row blocks
			qmax := min(32767, int(math.Sqrt(float64(math.MaxInt32)/float64(k))))
			draw := func(s []int16) {
				for i := range s {
					if rng.Intn(5) == 0 {
						s[i] = 0
					} else {
						s[i] = int16(rng.Intn(2*qmax+1) - qmax)
					}
				}
			}
			a := make([]int16, m*k)
			x := make([]int16, kb*k)
			draw(a)
			draw(x)
			wp := packFCInt16(a, m, k)
			got := make([]int32, kb*m)
			mid := rng.Intn(FCPanels(m) + 1)
			FCForwardInt16(got, x, wp, kb, k, m, 0, mid)
			FCForwardInt16(got, x, wp, kb, k, m, mid, FCPanels(m))
			for o := 0; o < m; o++ {
				for j := 0; j < kb; j++ {
					want := int64(0)
					for p := 0; p < k; p++ {
						want += int64(a[o*k+p]) * int64(x[j*k+p])
					}
					if int64(got[j*m+o]) != want {
						t.Fatalf("m=%d k=%d rows=%d: output %d row %d = %d, int64 dot %d", m, k, kb, o, j, got[j*m+o], want)
					}
				}
			}
		}
	})
}

// TestIm2ColInt16MatchesFloat pins the generic im2col instantiations
// to each other: quantized input expanded by im2col over int16 must place
// exactly the values the float expansion places.
func TestIm2ColInt16MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := ConvGeom{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1}.Infer()
	in16 := make([]int16, g.InC*g.InH*g.InW)
	fillInt16(rng, in16)
	inF := make([]float32, len(in16))
	for i, v := range in16 {
		inF[i] = float32(v)
	}
	rows := g.InC * g.KH * g.KW
	cols := g.OutH * g.OutW
	col16 := make([]int16, rows*cols)
	colF := make([]float32, rows*cols)
	im2col(col16, in16, g)
	Im2Col(colF, inF, g)
	for i := range col16 {
		if float32(col16[i]) != colF[i] {
			t.Fatalf("element %d: int16 %d vs float %g", i, col16[i], colF[i])
		}
	}
}

// FuzzInt16GEMM drives packed-vs-reference exact agreement from fuzzed
// shapes and seeds, on every kernel path the host can run.
func FuzzInt16GEMM(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(8), int64(1))
	f.Add(uint8(5), uint8(9), uint8(6), int64(2))
	f.Add(uint8(1), uint8(31), uint8(17), int64(3))
	f.Add(uint8(23), uint8(2), uint8(41), int64(4))
	f.Add(uint8(4), uint8(255), uint8(8), int64(5))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m := int(mm%32) + 1
		k := int(kk)*4 + 1 // reach past the KC block boundary
		n := int(nn%64) + 1
		eachKernelPathInt16(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			checkShapeInt16(t, rng, m, k, n)
		})
	})
}

// alexShapes are AlexNet/CaffeNet conv im2col products (OutC ×
// InC·KH·KW × OutH·OutW), the shapes benchjson's predicates hold
// int16 ≥ 2x float32 packed on.
var alexShapes = []struct {
	name    string
	m, k, n int
}{
	{"AlexConv2_256x2400x729", 256, 2400, 729},
	{"AlexConv3_384x2304x169", 384, 2304, 169},
}

func BenchmarkGEMMInt16Blocked(b *testing.B) {
	b.Run("Square256", func(b *testing.B) {
		const n = 256
		rng := rand.New(rand.NewSource(5))
		a := make([]int16, n*n)
		bb := make([]int16, n*n)
		c := make([]int32, n*n)
		ap := make([]int16, PackASizeInt16(n, n))
		bp := make([]int16, PackBSizeInt16(n, n))
		fillInt16(rng, a)
		fillInt16(rng, bb)
		b.SetBytes(int64(2 * n * n * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gemmInt16(c, ap, bp, a, bb, n, n, n)
		}
	})
}

// BenchmarkGEMMInt16VsFloat32 measures both sides of benchjson's
// int16 ≥ 2x float32 predicate together: every iteration runs one
// float32 and one int16 packed product of the same shape, packing
// included, and the f32-ns/op and i16-ns/op metrics are each side's
// median call.
func BenchmarkGEMMInt16VsFloat32(b *testing.B) {
	for _, s := range alexShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			af := make([]float32, s.m*s.k)
			bf := make([]float32, s.k*s.n)
			cf := make([]float32, s.m*s.n)
			fillDense(rng, af)
			fillDense(rng, bf)
			ai := make([]int16, s.m*s.k)
			bi := make([]int16, s.k*s.n)
			ci := make([]int32, s.m*s.n)
			fillInt16(rng, ai)
			fillInt16(rng, bi)
			apf := make([]float32, PackASize(s.m, s.k))
			bpf := make([]float32, PackBSize(s.k, s.n))
			api := make([]int16, PackASizeInt16(s.m, s.k))
			bpi := make([]int16, PackBSizeInt16(s.k, s.n))
			benchpair.Alternate(b, [2]string{"f32-ns/op", "i16-ns/op"}, [2]func(){
				func() { gemm(cf, apf, bpf, af, bf, s.m, s.k, s.n) },
				func() { gemmInt16(ci, api, bpi, ai, bi, s.m, s.k, s.n) },
			})
		})
	}
}

// BenchmarkPackAlexConv times each operand pack alone on the AlexConv
// shapes: the A operand (weights, m×k) and the B operand (im2col
// columns, k×n) at both precisions.
func BenchmarkPackAlexConv(b *testing.B) {
	for _, s := range alexShapes {
		rng := rand.New(rand.NewSource(5))
		af := make([]float32, s.m*s.k)
		bf := make([]float32, s.k*s.n)
		fillDense(rng, af)
		fillDense(rng, bf)
		ai := make([]int16, s.m*s.k)
		bi := make([]int16, s.k*s.n)
		fillInt16(rng, ai)
		fillInt16(rng, bi)
		ap := make([]float32, PackASize(s.m, s.k))
		bp := make([]float32, PackBSize(s.k, s.n))
		api := make([]int16, PackASizeInt16(s.m, s.k))
		bpi := make([]int16, PackBSizeInt16(s.k, s.n))
		for _, c := range []struct {
			name string
			pack func()
		}{
			{"PackA", func() { PackA(ap, af, s.m, s.k) }},
			{"PackAInt16", func() { PackAInt16(api, ai, s.m, s.k) }},
			{"PackB", func() { PackB(bp, bf, s.k, s.n) }},
			{"PackBInt16", func() { PackBInt16(bpi, bi, s.k, s.n) }},
		} {
			b.Run(s.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.pack()
				}
			})
		}
	}
}
