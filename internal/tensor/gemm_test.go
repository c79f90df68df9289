package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillGEMM fills a slice with a mix of normal values, exact zeros of
// both signs (to exercise the skip-zero paths: −0 == 0, so it is
// skipped too), and denormal-scale values.
func fillGEMM(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
			if rng.Intn(2) == 0 {
				s[i] = float32(math.Copysign(0, -1))
			}
		case 1:
			s[i] = float32(rng.NormFloat64() * 1e-20)
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// mulNoFold multiplies at run time, so the product is the one the
// hardware computes, not a compile-time constant.
//
//go:noinline
func mulNoFold(a, b float32) float32 { return a * b }

// hostNaN is the NaN the host's float unit produces for Inf·0.
var hostNaN = mulNoFold(float32(math.Inf(1)), 0)

// addSpecials puts infinities and NaNs into a row-major matrix with
// cols columns: about one row in eight gets a ±Inf, and about one in
// eight gets a NaN, at most one per row. Where a zero A lane meets
// them in B, a kernel that loses the skip test computes 0·Inf or 0·NaN
// and turns a finite sum into NaN. Every NaN carries the payload the
// host generates for Inf·0, so no sum can meet two NaN payloads, whose
// survivor would depend on the operand order the compiler picks.
func addSpecials(rng *rand.Rand, s []float32, cols int) {
	for r := 0; r+cols <= len(s); r += cols {
		if rng.Intn(8) == 0 {
			s[r+rng.Intn(cols)] = float32(math.Inf(1 - 2*rng.Intn(2)))
		}
		if rng.Intn(8) == 0 {
			s[r+rng.Intn(cols)] = hostNaN
		}
	}
}

func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkShape runs every blocked kernel against its reference for one
// (m, k, n) shape and fails on the first bit difference. Operands carry
// zeros of both signs, infinities and NaNs (addSpecials).
func checkShape(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	a := make([]float32, m*k)  // A for A·B
	at := make([]float32, k*m) // A for Aᵀ·B (k×m)
	b := make([]float32, k*n)  // B for both
	fillGEMM(rng, a)
	fillGEMM(rng, at)
	fillGEMM(rng, b)
	addSpecials(rng, a, k)
	addSpecials(rng, at, m)
	addSpecials(rng, b, n)

	got := make([]float32, m*n)
	want := make([]float32, m*n)
	refMatMul(want, a, b, m, k, n)

	// The whole product over a quad-aligned row split, like a worker
	// fan-out would produce.
	ap := make([]float32, PackASize(m, k))
	bp := make([]float32, PackBSize(k, n))
	PackA(ap, a, m, k)
	PackB(bp, b, k, n)
	mid := (m / 2 / GEMMRowGrain) * GEMMRowGrain
	for i := range got {
		got[i] = float32(math.NaN())
	}
	MatMulPacked(got, ap, bp, m, k, n, 0, mid)
	MatMulPacked(got, ap, bp, m, k, n, mid, m)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("MatMulPacked m=%d k=%d n=%d split@%d: element %d differs: %x vs %x",
			m, k, n, mid, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}

	// Accumulating form, into a C seeded with values and specials of
	// its own, over the same row split.
	seed := make([]float32, m*n)
	fillGEMM(rng, seed)
	addSpecials(rng, seed, n)
	copy(want, seed)
	refMatMulAcc(want, a, b, m, k, n)
	copy(got, seed)
	MatMulPackedAcc(got, ap, bp, m, k, n, 0, mid)
	MatMulPackedAcc(got, ap, bp, m, k, n, mid, m)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("MatMulPackedAcc m=%d k=%d n=%d split@%d: element %d differs: %x vs %x",
			m, k, n, mid, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}

	// Aᵀ·B with A packed from its transpose: the whole product, then
	// a random quad-aligned row range packed and multiplied alone, as
	// a worker's chunk is.
	refMatMulATBRows(want, at, b, m, k, n, 0, m)
	atp := make([]float32, PackASize(m, k))
	PackATRange(atp, at, m, k, 0, m)
	MatMulPacked(got, atp, bp, m, k, n, 0, m)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("Aᵀ·B m=%d k=%d n=%d: element %d differs: %x vs %x",
			m, k, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
	lo := rng.Intn(m/GEMMRowGrain+1) * GEMMRowGrain
	hi := lo + rng.Intn(m-lo+1)
	for i := range got {
		got[i] = float32(math.NaN())
	}
	for i := range atp {
		atp[i] = float32(math.NaN())
	}
	PackATRange(atp, at, m, k, lo, hi)
	MatMulPacked(got, atp, bp, m, k, n, lo, hi)
	for i := lo * n; i < hi*n; i++ {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("Aᵀ·B m=%d k=%d n=%d rows [%d,%d): element %d differs", m, k, n, lo, hi, i)
		}
	}
}

// gemm packs A (m×k) and B (k×n) into ap and bp, which hold
// PackASize(m, k) and PackBSize(k, n) elements, and computes C = A·B
// from them: the whole product through the packed kernels, packing
// included.
func gemm(c, ap, bp, a, b []float32, m, k, n int) {
	PackA(ap, a, m, k)
	PackB(bp, b, k, n)
	MatMulPacked(c, ap, bp, m, k, n, 0, m)
}

// matMul is gemm into fresh packing scratch.
func matMul(c, a, b []float32, m, k, n int) {
	gemm(c, make([]float32, PackASize(m, k)), make([]float32, PackBSize(k, n)), a, b, m, k, n)
}

// refMatMulAcc adds A·B into C with refMatMul's loop: per element, the
// k products in ascending order, zero A elements skipped.
func refMatMulAcc(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j, bv := range b[p*n : (p+1)*n] {
				ci[j] += av * bv
			}
		}
	}
}

// eachKernelPath runs fn once per microkernel tier available on this
// host (portable Go, AVX, and AVX-512 when present), so the
// bit-identity properties pin every body. Each subtest forces the
// tiers above it off: "go" and "avx" never reach the zmm kernel.
func eachKernelPath(t *testing.T, fn func(t *testing.T)) {
	avx, avx512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = avx, avx512 }()
	useAVX, useAVX512 = false, false
	t.Run("go", fn)
	if avx {
		useAVX = true
		t.Run("avx", fn)
	}
	if avx && avx512 {
		useAVX512 = true
		t.Run("avx512", fn)
	} else {
		t.Log("no avx512 subtest: the host lacks AVX-512F+VNNI")
	}
}

// TestBlockedKernelsBitIdentical is the property test behind the
// determinism contract: across randomized shapes — including ragged
// tails in every dimension — the blocked kernels must reproduce the
// reference kernels bit for bit, on every kernel path.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		// Deliberate edge shapes: tile-aligned, one-off ragged tails,
		// and degenerate single rows/columns. The last six cross the
		// gemmKC block once and twice at n = 16q, 16q+1 and 16q+9
		// (CaffeNet's conv column counts are 8q+1).
		shapes := [][3]int{
			{1, 1, 1}, {1, 7, 1}, {4, 4, 8}, {8, 16, 16},
			{5, 9, 6}, {3, 5, 2}, {4, 1, 9}, {7, 13, 11},
			{16, 25, 196}, {9, 25, 196}, {12, 75, 64}, {1, 400, 10},
			{8, 600, 24}, {4, 1030, 16},
			{8, 513, 48}, {9, 513, 49}, {8, 513, 57},
			{9, 1030, 48}, {8, 1030, 49}, {9, 1030, 57},
			// Full-panel counts 2, 5, 2 and 6: one panel pair alone,
			// two pairs and a lone panel, a pair and the ragged
			// tile, and three pairs across two K blocks.
			{4, 3, 32}, {8, 7, 80}, {6, 9, 41}, {5, 1030, 96},
		}
		for _, s := range shapes {
			checkShape(t, rng, s[0], s[1], s[2])
		}
		for iter := 0; iter < 50; iter++ {
			m := 1 + rng.Intn(24)
			k := 1 + rng.Intn(48)
			n := 1 + rng.Intn(48)
			checkShape(t, rng, m, k, n)
		}
	})
}

// nanPayloads are quiet NaNs of both signs with distinct payloads,
// and a signalling one, which the float unit quiets.
var nanPayloads = []uint32{0x7fc00001, 0xffc12345, 0x7fd5a5a5, 0xff800001, 0x7f800f00}

// TestAVX512MatchesAVXNaNPayloads compares the zmm panel-pair kernel
// with the ymm kernel on operands whose NaNs carry distinct payloads in
// A, B and C. A sum that meets two NaNs keeps the one its operand order
// selects; both assembly bodies put the A value first in VMULPS and the
// running sum first in VADDPS, so they must agree bit for bit even
// here, where the Go body, whose operand order the compiler picks, is
// not compared.
func TestAVX512MatchesAVXNaNPayloads(t *testing.T) {
	if !useAVX || !useAVX512 {
		t.Skip("host lacks AVX-512F+VNNI")
	}
	defer func() { useAVX512 = true }()
	rng := rand.New(rand.NewSource(41))
	poison := func(s []float32) {
		for i := range s {
			switch rng.Intn(6) {
			case 0:
				s[i] = math.Float32frombits(nanPayloads[rng.Intn(len(nanPayloads))])
			case 1:
				s[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
	}
	for _, s := range [][3]int{{4, 5, 32}, {8, 33, 80}, {7, 9, 41}, {12, 600, 64}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		seed := make([]float32, m*n)
		fillGEMM(rng, a)
		fillGEMM(rng, b)
		fillGEMM(rng, seed)
		poison(a)
		poison(b)
		poison(seed)
		ap := make([]float32, PackASize(m, k))
		bp := make([]float32, PackBSize(k, n))
		PackA(ap, a, m, k)
		PackB(bp, b, k, n)
		var got [2][]float32
		for i, zmm := range []bool{false, true} {
			useAVX512 = zmm
			got[i] = append([]float32(nil), seed...)
			MatMulPackedAcc(got[i], ap, bp, m, k, n, 0, m)
		}
		if i, ok := bitsEqual(got[1], got[0]); !ok {
			t.Fatalf("m=%d k=%d n=%d: element %d: avx512 %x, avx %x",
				m, k, n, i, math.Float32bits(got[1][i]), math.Float32bits(got[0][i]))
		}
	}
}

// TestKernelTierNames logs the tier this host runs, the line CI prints,
// and names each tier a host can have, plus the forced portable path,
// which the zmm kernels never reach because they also need the ymm
// gates.
func TestKernelTierNames(t *testing.T) {
	t.Logf("GEMM kernels: %s", GEMMKernels())
	avx, avx2, avx512 := useAVX, useAVX2, useAVX512
	defer func() { useAVX, useAVX2, useAVX512 = avx, avx2, avx512 }()
	for _, c := range []struct {
		avx, avx2, avx512 bool
		want              string
	}{
		{true, true, true, "avx512-vnni"},
		{true, true, false, "avx2"},
		{true, false, false, "avx"},
		{false, false, false, "go"},
		{false, false, true, "go"},
	} {
		useAVX, useAVX2, useAVX512 = c.avx, c.avx2, c.avx512
		if got := GEMMKernels(); got != c.want {
			t.Errorf("gates avx=%v avx2=%v avx512=%v: GEMMKernels() = %q, want %q",
				c.avx, c.avx2, c.avx512, got, c.want)
		}
	}
	if avx512 && (!avx || !avx2) {
		t.Errorf("CPUID reports AVX-512F+VNNI without AVX (%v) or AVX2 (%v)", avx, avx2)
	}
}

// TestKernelNaNSemantics pins the `av != 0` skip on NaN/Inf A
// entries: a NaN lane is never skipped (Go `!=` and the AVX NEQ_UQ
// predicate agree), so poisoned activations propagate identically on
// both kernel paths and in the reference.
func TestKernelNaNSemantics(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		m, k, n := 8, 13, 17
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillGEMM(rng, a)
		fillGEMM(rng, b)
		nan := float32(math.NaN())
		inf := float32(math.Inf(1))
		a[3] = nan
		a[k+4] = inf
		a[2*k] = nan
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		matMul(got, a, b, m, k, n)
		refMatMul(want, a, b, m, k, n)
		for i := range got {
			gn, wn := math.IsNaN(float64(got[i])), math.IsNaN(float64(want[i]))
			if gn != wn {
				t.Fatalf("element %d: NaN-ness differs: got %v want %v", i, got[i], want[i])
			}
			if !gn && math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("element %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	})
}

// TestMatVecKernelsBitIdentical pins the FC-layer vector kernels to
// their naive forms: bias-seeded row dots (forward) and o-ascending
// column accumulation with zero-row skips (backward).
func TestMatVecKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 80; iter++ {
		m := 1 + rng.Intn(20)
		k := 1 + rng.Intn(40)
		a := make([]float32, m*k)
		x := make([]float32, k)
		seed := make([]float32, m)
		fillGEMM(rng, a)
		fillGEMM(rng, x)
		fillGEMM(rng, seed)

		got := append([]float32(nil), seed...)
		MatVecAcc(got, a, x, m, k)
		want := append([]float32(nil), seed...)
		for o := 0; o < m; o++ {
			s := want[o]
			row := a[o*k : (o+1)*k]
			for i, wv := range row {
				s += wv * x[i]
			}
			want[o] = s
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("MatVecAcc m=%d k=%d: element %d differs", m, k, i)
		}

		// Transposed form over a random column range, coefficients with
		// enough zeros to hit both the dense-quad and fallback paths.
		g := make([]float32, m)
		for i := range g {
			if rng.Intn(3) == 0 {
				g[i] = 0
			} else {
				g[i] = float32(rng.NormFloat64())
			}
		}
		lo := rng.Intn(k + 1)
		hi := lo + rng.Intn(k-lo+1)
		gotY := make([]float32, k)
		wantY := make([]float32, k)
		fillGEMM(rng, gotY)
		copy(wantY, gotY)
		MatVecTAcc(gotY, a, g, k, lo, hi)
		for o := 0; o < m; o++ {
			gv := g[o]
			if gv == 0 {
				continue
			}
			row := a[o*k+lo : o*k+hi]
			for i, wv := range row {
				wantY[lo+i] += gv * wv
			}
		}
		if i, ok := bitsEqual(gotY, wantY); !ok {
			t.Fatalf("MatVecTAcc m=%d k=%d [%d,%d): element %d differs", m, k, lo, hi, i)
		}
	}
}

// TestPackRangesMatchFull checks the range packers are pure tilings of
// the full packs (workers split packing over panels and quads).
func TestPackRangesMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kn := range [][2]int{{5, 7}, {9, 16}, {3, 1}, {25, 196}, {13, 40}} {
		k, n := kn[0], kn[1]
		b := make([]float32, k*n)
		fillGEMM(rng, b)
		full := make([]float32, PackBSize(k, n))
		PackB(full, b, k, n)
		split := make([]float32, PackBSize(k, n))
		np := PackPanels(n)
		mid := np / 2
		PackBRange(split, b, k, n, 0, mid)
		PackBRange(split, b, k, n, mid, np)
		if i, ok := bitsEqual(split, full); !ok {
			t.Fatalf("PackBRange k=%d n=%d: element %d differs", k, n, i)
		}
		// Transposed packs must produce the same layout from the
		// transposed source.
		bt := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		btp := make([]float32, PackBSize(k, n))
		PackBTRange(btp, bt, k, n, 0, np)
		if i, ok := bitsEqual(btp, full); !ok {
			t.Fatalf("PackBTRange k=%d n=%d: element %d differs", k, n, i)
		}

		m := n // reuse the shape as an m×k A operand
		a := make([]float32, m*k)
		fillGEMM(rng, a)
		fullA := make([]float32, PackASize(m, k))
		PackA(fullA, a, m, k)
		splitA := make([]float32, PackASize(m, k))
		midRow := (m / 2 / GEMMRowGrain) * GEMMRowGrain
		PackARange(splitA, a, m, k, 0, midRow)
		PackARange(splitA, a, m, k, midRow, m)
		if i, ok := bitsEqual(splitA, fullA); !ok {
			t.Fatalf("PackARange m=%d k=%d: element %d differs", m, k, i)
		}
		atr := make([]float32, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				atr[p*m+i] = a[i*k+p]
			}
		}
		atp := make([]float32, PackASize(m, k))
		PackATRange(atp, atr, m, k, 0, m)
		if i, ok := bitsEqual(atp, fullA); !ok {
			t.Fatalf("PackATRange m=%d k=%d: element %d differs", m, k, i)
		}
	}
}

// FuzzGEMMBitIdentity drives the same equivalence from fuzzed shape
// and seed inputs, letting the fuzzer hunt for tile-boundary shapes
// the fixed corpus misses.
func FuzzGEMMBitIdentity(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(8), int64(1))
	f.Add(uint8(5), uint8(9), uint8(6), int64(2))
	f.Add(uint8(1), uint8(31), uint8(17), int64(3))
	f.Add(uint8(23), uint8(2), uint8(41), int64(4))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m := int(mm%32) + 1
		k := int(kk%32) + 1
		n := int(nn) + 1 // up to 16 panels of 16, plus a ragged one
		eachKernelPath(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			checkShape(t, rng, m, k, n)
		})
	})
}

// TestGEMMRowGrainAlignsTiles documents the contract between the
// parallel chunk grain and the microkernel quad height.
func TestGEMMRowGrainAlignsTiles(t *testing.T) {
	if GEMMRowGrain != gemmQuadH {
		t.Fatalf("GEMMRowGrain=%d must equal the quad height %d", GEMMRowGrain, gemmQuadH)
	}
}

// fillDense fills with nonzero normals: representative of unpruned
// weights/activations, and the worst case for the skip branches.
func fillDense(rng *rand.Rand, s []float32) {
	for i := range s {
		v := float32(rng.NormFloat64())
		if v == 0 {
			v = 1
		}
		s[i] = v
	}
}

// benchShapes are the large-shape cases the PR 3 acceptance criterion
// (≥2x over the reference kernels) is measured on: a square GEMM and
// the conv2-like im2col product of the quickstart CNN.
var benchShapes = []struct {
	name    string
	m, k, n int
}{
	{"Square256", 256, 256, 256},
	{"Conv64x400x784", 64, 400, 784},
}

func benchGEMM(b *testing.B, m, k, n int, fn func(c, a, bb []float32)) {
	rng := rand.New(rand.NewSource(5))
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	fillDense(rng, a)
	fillDense(rng, bb)
	b.SetBytes(int64(4 * m * k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, a, bb)
	}
}

func BenchmarkGEMMBlocked(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			ap := make([]float32, PackASize(s.m, s.k))
			bp := make([]float32, PackBSize(s.k, s.n))
			benchGEMM(b, s.m, s.k, s.n, func(c, a, bb []float32) {
				gemm(c, ap, bp, a, bb, s.m, s.k, s.n)
			})
		})
	}
}

func BenchmarkGEMMReference(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			benchGEMM(b, s.m, s.k, s.n, func(c, a, bb []float32) {
				refMatMul(c, a, bb, s.m, s.k, s.n)
			})
		})
	}
}

func BenchmarkGEMMATBBlocked(b *testing.B) {
	m, k, n := 400, 64, 784
	rng := rand.New(rand.NewSource(5))
	a := make([]float32, k*m)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	ap := make([]float32, PackASize(m, k))
	bp := make([]float32, PackBSize(k, n))
	fillDense(rng, a)
	fillDense(rng, bb)
	b.SetBytes(int64(4 * m * k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackATRange(ap, a, m, k, 0, m)
		PackB(bp, bb, k, n)
		MatMulPacked(c, ap, bp, m, k, n, 0, m)
	}
}

func BenchmarkGEMMATBReference(b *testing.B) {
	m, k, n := 400, 64, 784
	rng := rand.New(rand.NewSource(5))
	a := make([]float32, k*m)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	fillDense(rng, a)
	fillDense(rng, bb)
	b.SetBytes(int64(4 * m * k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMatMulATBRows(c, a, bb, m, k, n, 0, m)
	}
}
