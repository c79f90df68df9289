package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// FuzzConvRows holds a convolution's K-row passes to K one-row passes,
// bit for bit, over fuzzed group sizes (1–5), channel counts, input
// sizes, kernels, strides, padding, channel groups and host worker
// counts: the forward outputs, the backward's input gradients, and
// the weight and bias gradients the K samples add into a G seeded with
// values of its own, with and without the input gradient. At one
// worker a group of five spans two tiles.
func FuzzConvRows(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(3), uint8(5), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(4), uint8(0), uint8(1), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), int64(2))
	f.Fuzz(func(t *testing.T, kk, groups, cc, hh, oo, kernel, stride, pad, workers uint8, seed int64) {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(int(workers%2)+1))
		g := int(groups%3) + 1
		ks := int(kernel%4) + 1
		checkConvRows(t, rand.New(rand.NewSource(seed)), int(kk%5)+1, convShape{
			inC: g * (int(cc%3) + 1), h: ks + int(hh%7), w: ks + int(hh/7%5),
			outC: g * (int(oo%3) + 1), k: ks, stride: int(stride%3) + 1, pad: int(pad) % ks, groups: g,
		})
	})
}

// convShape is the geometry of a convolution under test.
type convShape struct{ inC, h, w, outC, k, stride, pad, groups int }

func (s convShape) layer() *Conv2D {
	return NewConv2D("conv", s.inC, s.h, s.w, s.outC, s.k, s.stride, s.pad, s.groups)
}

// checkConvRows runs k samples through one conv layer as k rows and
// through its twin as k one-row Forward and Backward calls, and fails
// on the first bit that differs.
func checkConvRows(t *testing.T, rng *rand.Rand, k int, s convShape) {
	t.Helper()
	what := fmt.Sprintf("K=%d %+v", k, s)
	rows, one := s.layer(), s.layer()
	fillConv(rng, rows.weight.W.Data)
	fillConv(rng, rows.bias.W.Data)
	for i, p := range rows.Params() {
		g := p.Grad()
		g.RandN(rng, 1)
		copy(one.Params()[i].W.Data, p.W.Data)
		copy(one.Params()[i].Grad().Data, g.Data)
	}
	g := rows.geom
	x := tensor.New(k, g.InC, g.InH, g.InW)
	x.RandN(rng, 1)
	clear(x.Data[:g.InH*g.InW]) // an all-zero channel
	gOut := tensor.New(k, g.OutC, g.OutH, g.OutW)
	fillConv(rng, gOut.Data)

	y := append([]float32(nil), rows.forwardRows(x, true).Data...)
	dIn := append([]float32(nil), rows.backwardRows(gOut, true).Data...)
	in, out := x.Len()/k, gOut.Len()/k
	for e := 0; e < k; e++ {
		xe := &tensor.Tensor{Shape: x.Shape[1:], Data: x.Data[e*in : (e+1)*in]}
		ge := &tensor.Tensor{Shape: gOut.Shape[1:], Data: gOut.Data[e*out : (e+1)*out]}
		sameConvBits(t, what+" forward row "+strconv.Itoa(e), one.Forward(xe, true).Data, y[e*out:(e+1)*out])
		sameConvBits(t, what+" dIn row "+strconv.Itoa(e), one.Backward(ge).Data, dIn[e*in:(e+1)*in])
	}
	for i, p := range rows.Params() {
		sameConvBits(t, what+" "+p.Name+" G", one.Params()[i].G.Data, p.G.Data)
	}

	// Without the input gradient the parameter gradients add alike.
	rows.forwardRows(x, true)
	if rows.backwardRows(gOut, false) != nil {
		t.Fatalf("%s: backward without wantIn returned an input gradient", what)
	}
	for e := 0; e < k; e++ {
		one.Forward(&tensor.Tensor{Shape: x.Shape[1:], Data: x.Data[e*in : (e+1)*in]}, true)
		one.Backward(&tensor.Tensor{Shape: gOut.Shape[1:], Data: gOut.Data[e*out : (e+1)*out]})
	}
	for i, p := range rows.Params() {
		sameConvBits(t, what+" "+p.Name+" G without dIn", one.Params()[i].G.Data, p.G.Data)
	}
}

// fillConv fills s with normal values mixed with zeros of both signs
// and subnormals.
func fillConv(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		case 1:
			s[i] = float32(rng.NormFloat64() * 1e-41)
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// sameConvBits fails unless got, one-row passes, equals want, the K-row
// pass, bit for bit.
func sameConvBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, K rows %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: one row %08x, K rows %08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
