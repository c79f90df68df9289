package nn

import (
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/tensor"
)

func TestAvgPoolForward(t *testing.T) {
	// 1 channel, 4x4 input, 2x2 pool stride 2.
	in := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4)
	p := NewAvgPool2D("ap", 1, 4, 4, 2, 2)
	out := p.Forward(in, false)
	want := []float32{2.5, 6.5, 10.5, 14.5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("avg pool = %v, want %v", out.Data, want)
		}
	}
	if s := out.Shape; len(s) != 3 || s[1] != 2 || s[2] != 2 {
		t.Errorf("output shape = %v", s)
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net := NewNetwork("ap-test").Add(
		NewConv2D("c", 1, 6, 6, 4, 3, 1, 1, 1),
		NewReLU("r"),
		NewAvgPool2D("ap", 4, 6, 6, 2, 2),
		NewFlatten("f"),
		NewFullyConnected("fc", 4*3*3, 3),
	)
	net.Init(rng)
	in := tensor.New(1, 6, 6)
	in.RandN(rng, 1)
	checkGradients(t, net, in, 1, 2e-2)
}

func TestAvgPoolGradientConservation(t *testing.T) {
	// With a full-coverage window grid, the gradient mass entering the
	// layer equals the mass leaving it.
	p := NewAvgPool2D("ap", 2, 4, 4, 2, 2)
	in := tensor.New(2, 4, 4)
	p.Forward(in, true)
	gradOut := tensor.New(2, 2, 2)
	for i := range gradOut.Data {
		gradOut.Data[i] = float32(i + 1)
	}
	gradIn := backward(p, gradOut)
	var inSum, outSum float64
	for _, v := range gradOut.Data {
		outSum += float64(v)
	}
	for _, v := range gradIn.Data {
		inSum += float64(v)
	}
	if math.Abs(inSum-outSum) > 1e-5 {
		t.Errorf("gradient mass not conserved: %v vs %v", inSum, outSum)
	}
}
