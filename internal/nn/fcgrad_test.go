package nn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// perExampleFCGrad is the FC parameter gradient of one example as the
// layer accumulated it before batching: per output o, the bias adds
// g[o] and, unless g[o] is zero, the weight row adds g[o]·x.
func perExampleFCGrad(gw, gb, x, g []float32) {
	in := len(x)
	for o, gv := range g {
		gb[o] += gv
		if gv == 0 {
			continue
		}
		row := gw[o*in : (o+1)*in]
		for i := range row {
			row[i] += gv * x[i]
		}
	}
}

// mulAtRun multiplies at run time, so the product is the one the
// hardware computes, not a compile-time constant.
//
//go:noinline
func mulAtRun(a, b float32) float32 { return a * b }

// fcGradNaN is the NaN the host generates for Inf·0. It is the only
// NaN the operands carry, so no sum meets two NaN payloads, whose
// survivor would depend on the operand order the compiler picks.
var fcGradNaN = mulAtRun(float32(math.Inf(1)), 0)

// fillFCGrad fills rows of cols values with normal values, zeros of
// both signs, subnormals and infinities, and gives about one row in
// four one NaN.
func fillFCGrad(rng *rand.Rand, s []float32, cols int) {
	for i := range s {
		switch rng.Intn(10) {
		case 0:
			s[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		case 1:
			s[i] = float32(rng.NormFloat64() * 1e-41) // subnormal
		case 2:
			s[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
	for r := 0; r+cols <= len(s); r += cols {
		if rng.Intn(4) == 0 {
			s[r+rng.Intn(cols)] = fcGradNaN
		}
	}
}

// checkFCWeightGrad runs the backward of k rows of an in→out FC layer
// into a G seeded with values of its own, and fails on the first bit
// that differs from per-example accumulation in example order. It then
// checks that a direct Backward, a group of one, does the same for one
// example.
func checkFCWeightGrad(t *testing.T, rng *rand.Rand, k, in, out int) {
	t.Helper()
	l := NewFullyConnected("fc", in, out)
	l.weight.W.RandN(rng, 1)
	x := make([]float32, k*in)
	g := make([]float32, k*out)
	fillFCGrad(rng, x, in)
	fillFCGrad(rng, g, out)
	gw, gb := l.weight.Grad().Data, l.bias.Grad().Data
	fillFCGrad(rng, gw, in)
	fillFCGrad(rng, gb, out)
	wantW := append([]float32(nil), gw...)
	wantB := append([]float32(nil), gb...)
	for e := 0; e < k; e++ {
		perExampleFCGrad(wantW, wantB, x[e*in:(e+1)*in], g[e*out:(e+1)*out])
	}

	l.lastIn = &tensor.Tensor{Shape: []int{k, in}, Data: x}
	if dIn := l.backwardRows(&tensor.Tensor{Shape: []int{k, out}, Data: g}, false); dIn != nil {
		t.Fatal("backward without wantIn returned an input gradient")
	}
	compareFCGrad(t, "batch", k, in, out, gw, gb, wantW, wantB)

	e := rng.Intn(k)
	perExampleFCGrad(wantW, wantB, x[e*in:(e+1)*in], g[e*out:(e+1)*out])
	l.lastIn = &tensor.Tensor{Shape: []int{1, in}, Data: x[e*in : (e+1)*in]}
	l.Backward(&tensor.Tensor{Shape: []int{out}, Data: g[e*out : (e+1)*out]})
	compareFCGrad(t, "Backward", k, in, out, gw, gb, wantW, wantB)
}

func compareFCGrad(t *testing.T, what string, k, in, out int, gw, gb, wantW, wantB []float32) {
	t.Helper()
	for i := range wantW {
		if math.Float32bits(gw[i]) != math.Float32bits(wantW[i]) {
			t.Fatalf("%s k=%d in=%d out=%d: weight grad [%d][%d] = %08x, per-example %08x",
				what, k, in, out, i/in, i%in, math.Float32bits(gw[i]), math.Float32bits(wantW[i]))
		}
	}
	for o := range wantB {
		if math.Float32bits(gb[o]) != math.Float32bits(wantB[o]) {
			t.Fatalf("%s k=%d in=%d out=%d: bias grad [%d] = %08x, per-example %08x",
				what, k, in, out, o, math.Float32bits(gb[o]), math.Float32bits(wantB[o]))
		}
	}
}

// TestFCWeightGradMatchesPerExample holds the batch GEMM gradient equal,
// bit for bit, to per-example accumulation, at batch sizes 1–17 and
// with ragged output quads and input panels, the GEMM split over 1 and
// 3 workers.
func TestFCWeightGradMatchesPerExample(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		rng := rand.New(rand.NewSource(31))
		for k := 1; k <= 17; k++ {
			for _, s := range [][2]int{{1, 1}, {5, 3}, {16, 4}, {17, 7}, {33, 10}, {50, 13}} {
				checkFCWeightGrad(t, rng, k, s[0], s[1])
			}
		}
	}
}

// FuzzFCWeightGrad drives the same equivalence over fuzzed batch sizes,
// layer shapes and operands.
func FuzzFCWeightGrad(f *testing.F) {
	f.Add(uint8(15), uint8(48), uint8(9), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), int64(2))
	f.Add(uint8(16), uint8(100), uint8(38), int64(3))
	f.Fuzz(func(t *testing.T, kk, ii, oo uint8, seed int64) {
		k := int(kk%17) + 1
		in := int(ii)%120 + 1
		out := int(oo)%40 + 1
		checkFCWeightGrad(t, rand.New(rand.NewSource(seed)), k, in, out)
	})
}
