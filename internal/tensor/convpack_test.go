package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// convCase is one convolution geometry of the fused-pack tests.
type convCase struct {
	c, h, w, k, stride, pad int
}

// convPackCases covers 1×1, 3×3, 5×5 and 11×11 kernels with and without
// padding and stride, ragged last panels (output sizes that are not a
// multiple of 16), odd patch depths, outputs narrower than a panel, and
// padding wider than the kernel reach.
var convPackCases = []convCase{
	{1, 1, 1, 1, 1, 0},
	{3, 5, 7, 1, 1, 0},
	{2, 9, 9, 1, 2, 1},
	{3, 8, 8, 3, 1, 1},
	{5, 13, 13, 3, 1, 1}, // conv3–5's 13×13 output
	{4, 12, 10, 3, 2, 0},
	{3, 7, 6, 3, 1, 3},
	{2, 27, 27, 5, 1, 2}, // conv2's 27×27 output
	{3, 6, 31, 5, 3, 4},
	{3, 35, 35, 11, 4, 0}, // conv1's 11×11 stride 4
	{1, 23, 19, 11, 4, 5},
}

func (cc convCase) geom() ConvGeom {
	return ConvGeom{InC: cc.c, InH: cc.h, InW: cc.w, KH: cc.k, KW: cc.k, Stride: cc.stride, Pad: cc.pad}.Infer()
}

// checkIm2ColPacked compares Im2ColPacked and Im2ColPackedInt16 with
// Im2Col+PackBRange and im2col+PackBRangeInt16 byte for byte,
// packing the panels as two ranges over scratch full of garbage, so a
// panel element the fused routine fails to write shows up.
func checkIm2ColPacked(t *testing.T, rng *rand.Rand, g ConvGeom) {
	t.Helper()
	k, n := g.InC*g.KH*g.KW, g.OutH*g.OutW
	np := PackPanels(n)
	mid := rng.Intn(np + 1)

	in := make([]float32, g.InC*g.InH*g.InW)
	fillGEMM(rng, in)
	addSpecials(rng, in, g.InW)
	col := make([]float32, k*n)
	Im2Col(col, in, g)
	want := make([]float32, PackBSize(k, n))
	PackBRange(want, col, k, n, 0, np)
	got := make([]float32, len(want))
	for i := range got {
		got[i] = float32(rng.NormFloat64())
	}
	Im2ColPacked(got, in, g, 0, mid)
	Im2ColPacked(got, in, g, mid, np)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("Im2ColPacked %+v: element %d is %08x, want %08x", g, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}

	qin := make([]int16, len(in))
	fillInt16(rng, qin)
	qcol := make([]int16, k*n)
	im2col(qcol, qin, g)
	qwant := make([]int16, PackBSizeInt16(k, n))
	PackBRangeInt16(qwant, qcol, k, n, 0, np)
	qgot := make([]int16, len(qwant))
	for i := range qgot {
		qgot[i] = int16(rng.Intn(1 << 16))
	}
	Im2ColPackedInt16(qgot, qin, g, 0, mid)
	Im2ColPackedInt16(qgot, qin, g, mid, np)
	for i := range qwant {
		if qgot[i] != qwant[i] {
			t.Fatalf("Im2ColPackedInt16 %+v: element %d is %d, want %d", g, i, qgot[i], qwant[i])
		}
	}
}

func TestIm2ColPackedMatchesIm2ColPack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cc := range convPackCases {
		checkIm2ColPacked(t, rng, cc.geom())
	}
}

// FuzzIm2ColPacked drives the same byte-for-byte comparison from fuzzed
// geometries: channels, input size, kernel, stride and padding. Every
// size decodes as one more than its byte (modulo a cap), padding as
// its byte modulo 6, so the seeds below are conv2's, conv1's and
// conv3's shapes on small inputs, and a strided 1×1 kernel.
func FuzzIm2ColPacked(f *testing.F) {
	f.Add(uint8(2), uint8(26), uint8(26), uint8(4), uint8(0), uint8(2), int64(1))
	f.Add(uint8(2), uint8(34), uint8(34), uint8(10), uint8(3), uint8(0), int64(2))
	f.Add(uint8(4), uint8(12), uint8(12), uint8(2), uint8(0), uint8(1), int64(3))
	f.Add(uint8(2), uint8(4), uint8(39), uint8(0), uint8(2), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad uint8, seed int64) {
		cc := convCase{int(c%5) + 1, int(h%40) + 1, int(w%40) + 1, int(k%11) + 1, int(stride%4) + 1, int(pad % 6)}
		if cc.h+2*cc.pad < cc.k || cc.w+2*cc.pad < cc.k {
			t.Skip("kernel larger than the padded input")
		}
		checkIm2ColPacked(t, rand.New(rand.NewSource(seed)), cc.geom())
	})
}

// poolSpecials is every special value the max-pool and ReLU tests mix
// in: zeros of both signs, infinities, NaNs with several payloads and
// both signs, denormals, and a repeated value for ties.
var poolSpecials = []float32{
	0,
	float32(math.Copysign(0, -1)),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000),
	math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7f800001),
	math.Float32frombits(0xff812345),
	math.Float32frombits(0x7fffffff),
	math.Float32frombits(1),
	math.Float32frombits(0x80000001),
	math.MaxFloat32,
	-math.MaxFloat32,
	1.5,
}

// fillSpecial fills s with normal values, about half of them replaced
// by specials; a small value range makes ties common.
func fillSpecial(rng *rand.Rand, s []float32) {
	for i := range s {
		if rng.Intn(2) == 0 {
			s[i] = poolSpecials[rng.Intn(len(poolSpecials))]
		} else {
			s[i] = float32(rng.Intn(7) - 3)
		}
	}
}

// poolCases are pooling geometries: CaffeNet's 3×3 stride 2, 2×2
// stride 2, overlapping and padded windows, and windows larger than
// the padded border.
var poolCases = []convCase{
	{3, 13, 13, 3, 2, 0},
	{2, 12, 12, 2, 2, 0},
	{2, 9, 11, 3, 1, 1},
	{3, 10, 7, 4, 3, 2},
	{1, 5, 5, 5, 1, 0},
	{2, 6, 8, 3, 2, 2},
	{1, 1, 1, 1, 1, 0},
}

func TestMaxPoolChannelsMatchesMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cc := range poolCases {
		g := cc.geom()
		for trial := 0; trial < 20; trial++ {
			in := make([]float32, g.InC*g.InH*g.InW)
			fillSpecial(rng, in)
			if trial == 0 {
				// Whole windows of NaN and of −Inf.
				for i := range in {
					in[i] = poolSpecials[4+i%2]
				}
			} else if trial == 1 {
				for i := range in {
					in[i] = float32(math.Inf(-1))
				}
			}
			out := make([]float32, g.InC*g.OutH*g.OutW)
			arg := make([]int32, len(out))
			refMaxPool(out, arg, in, g)
			gotOut := make([]float32, len(out))
			gotArg := make([]int32, len(out))
			mid := rng.Intn(g.InC + 1)
			MaxPoolChannels(gotOut, gotArg, in, g, 0, mid)
			MaxPoolChannels(gotOut, gotArg, in, g, mid, g.InC)
			if i, ok := bitsEqual(gotOut, out); !ok {
				t.Fatalf("%+v trial %d: output %d is %08x, want %08x", g, trial, i, math.Float32bits(gotOut[i]), math.Float32bits(out[i]))
			}
			for i := range arg {
				if gotArg[i] != arg[i] {
					t.Fatalf("%+v trial %d: argmax %d is %d, want %d", g, trial, i, gotArg[i], arg[i])
				}
			}
			noArg := make([]float32, len(out))
			MaxPoolChannels(noArg, nil, in, g, 0, g.InC)
			if i, ok := bitsEqual(noArg, out); !ok {
				t.Fatalf("%+v trial %d: output %d without argmax differs", g, trial, i)
			}
		}
	}
}

// TestMaxPoolChannelsTies pins the first-maximum rule on the fast path
// directly: −0 before +0 keeps −0, and +0 before −0 keeps +0.
func TestMaxPoolChannelsTies(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 4, KH: 2, KW: 2, Stride: 2}.Infer()
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7fc00001)
	in := []float32{
		negZero, 0, nan, 0,
		0, negZero, negZero, nan,
	}
	out := make([]float32, 2)
	arg := make([]int32, 2)
	MaxPoolChannels(out, arg, in, g, 0, 1)
	if math.Float32bits(out[0]) != 0x80000000 || arg[0] != 0 {
		t.Errorf("window 0 = %08x at %d, want −0 at 0", math.Float32bits(out[0]), arg[0])
	}
	if math.Float32bits(out[1]) != 0 || arg[1] != 3 {
		t.Errorf("window 1 = %08x at %d, want +0 at 3", math.Float32bits(out[1]), arg[1])
	}
}

func TestReLUMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]float32, 4096)
	fillSpecial(rng, in)
	copy(in, poolSpecials)
	grad := make([]float32, len(in))
	fillSpecial(rng, grad)
	out := make([]float32, len(in))
	gi := make([]float32, len(in))
	ReLU(out, in)
	ReLUGrad(gi, grad, in)
	for i, v := range in {
		want, wantG := float32(0), float32(0)
		if v > 0 {
			want, wantG = v, grad[i]
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("ReLU(%08x) = %08x, want %08x", math.Float32bits(v), math.Float32bits(out[i]), math.Float32bits(want))
		}
		if math.Float32bits(gi[i]) != math.Float32bits(wantG) {
			t.Fatalf("ReLUGrad at input %08x = %08x, want %08x", math.Float32bits(v), math.Float32bits(gi[i]), math.Float32bits(wantG))
		}
	}
}

// TestPositiveMaskEveryExponent runs positiveMask over the edges of
// every exponent band of both signs, NaN payloads included.
func TestPositiveMaskEveryExponent(t *testing.T) {
	for sign := uint32(0); sign < 2; sign++ {
		for e := uint32(0); e < 256; e++ {
			for _, m := range []uint32{0, 1, 0x400000, 0x7fffff} {
				b := sign<<31 | e<<23 | m
				v := math.Float32frombits(b)
				want := uint32(0)
				if v > 0 {
					want = math.MaxUint32
				}
				if got := positiveMask(b); got != want {
					t.Fatalf("positiveMask(%08x) = %08x, want %08x", b, got, want)
				}
			}
		}
	}
}

func BenchmarkIm2ColPackedConv2(b *testing.B) {
	g := ConvGeom{InC: 96, InH: 27, InW: 27, OutC: 256, KH: 5, KW: 5, Stride: 1, Pad: 2}.Infer()
	k, n := g.InC*g.KH*g.KW, g.OutH*g.OutW
	in := make([]float32, g.InC*g.InH*g.InW)
	fillDense(rand.New(rand.NewSource(1)), in)
	dst := make([]float32, PackBSize(k, n))
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Im2ColPacked(dst, in, g, 0, PackPanels(n))
		}
	})
	b.Run("im2col+pack", func(b *testing.B) {
		col := make([]float32, k*n)
		for i := 0; i < b.N; i++ {
			Im2Col(col, in, g)
			PackBRange(dst, col, k, n, 0, PackPanels(n))
		}
	})
}

func BenchmarkMaxPoolPool1(b *testing.B) {
	g := ConvGeom{InC: 96, InH: 55, InW: 55, KH: 3, KW: 3, Stride: 2}.Infer()
	in := make([]float32, g.InC*g.InH*g.InW)
	fillDense(rand.New(rand.NewSource(1)), in)
	ReLU(in, in)
	out := make([]float32, g.InC*g.OutH*g.OutW)
	b.Run("channels", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxPoolChannels(out, nil, in, g, 0, g.InC)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refMaxPool(out, nil, in, g)
		}
	})
}

func BenchmarkReLUConv1(b *testing.B) {
	in := make([]float32, 96*55*55)
	fillDense(rand.New(rand.NewSource(1)), in)
	out := make([]float32, len(in))
	b.Run("mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLU(out, in)
		}
	})
	b.Run("branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range in {
				if v > 0 {
					out[j] = v
				} else {
					out[j] = 0
				}
			}
		}
	})
}

func BenchmarkIm2ColPackedInt16Conv2(b *testing.B) {
	g := ConvGeom{InC: 96, InH: 27, InW: 27, OutC: 256, KH: 5, KW: 5, Stride: 1, Pad: 2}.Infer()
	k, n := g.InC*g.KH*g.KW, g.OutH*g.OutW
	in := make([]int16, g.InC*g.InH*g.InW)
	fillInt16(rand.New(rand.NewSource(1)), in)
	dst := make([]int16, PackBSizeInt16(k, n))
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Im2ColPackedInt16(dst, in, g, 0, PackPanels(n))
		}
	})
	b.Run("im2col+pack", func(b *testing.B) {
		col := make([]int16, k*n)
		for i := 0; i < b.N; i++ {
			im2col(col, in, g)
			PackBRangeInt16(dst, col, k, n, 0, PackPanels(n))
		}
	})
}

func BenchmarkIm2ColPackedConv1(b *testing.B) {
	g := ConvGeom{InC: 3, InH: 227, InW: 227, OutC: 96, KH: 11, KW: 11, Stride: 4}.Infer()
	k, n := g.InC*g.KH*g.KW, g.OutH*g.OutW
	in := make([]float32, g.InC*g.InH*g.InW)
	fillDense(rand.New(rand.NewSource(1)), in)
	dst := make([]float32, PackBSize(k, n))
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Im2ColPacked(dst, in, g, 0, PackPanels(n))
		}
	})
	b.Run("im2col+pack", func(b *testing.B) {
		col := make([]float32, k*n)
		for i := 0; i < b.N; i++ {
			Im2Col(col, in, g)
			PackBRange(dst, col, k, n, 0, PackPanels(n))
		}
	})
}
