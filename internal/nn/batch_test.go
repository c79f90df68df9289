package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/fixed"
	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// batchTestMLP builds a three-layer MLP whose first layer reaches past
// the GEMM's KC depth block and whose widths leave ragged output
// panels, with random biases, pruned (all-zero) weight rows in every
// FC layer, and 16 inputs of which three are all zero.
func batchTestMLP() (*Network, []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork("batch-mlp").Add(
		NewFlatten("flat"),
		NewFullyConnected("ip1", 24*24, 20),
		NewReLU("relu1"),
		NewFullyConnected("ip2", 20, 13),
		NewReLU("relu2"),
		NewFullyConnected("ip3", 13, 7),
	)
	net.Init(rng)
	for _, l := range net.Layers {
		fc, ok := l.(*FullyConnected)
		if !ok {
			continue
		}
		fc.bias.W.RandN(rng, 0.1)
		for _, o := range []int{1, fc.out - 2} {
			clear(fc.weight.W.Data[o*fc.in : (o+1)*fc.in])
		}
	}
	ins := make([]*tensor.Tensor, 16)
	for i := range ins {
		ins[i] = tensor.New(1, 24, 24)
		if i != 1 && i != 6 && i != 12 {
			ins[i].RandN(rng, 1)
		}
	}
	return net, ins
}

// batchTestModels are TestForwardBatchMatchesSequential's networks,
// each built fresh by its constructor: the MLP, the MLP with all-zero
// logit-layer inputs against a −0 bias ("negzero"), and a conv+fc net
// with two all-zero inputs and a pruned FC row.
func batchTestModels(t *testing.T) []struct {
	name  string
	build func() (*Network, []*tensor.Tensor)
} {
	return []struct {
		name  string
		build func() (*Network, []*tensor.Tensor)
	}{
		{"mlp", batchTestMLP},
		{"negzero", func() (*Network, []*tensor.Tensor) {
			net, ins := batchTestMLP()
			fill(net.Layers[3].(*FullyConnected).bias.W, -1e3) // relu2 → all zero
			net.Layers[5].(*FullyConnected).bias.W.Data[3] = float32(math.Copysign(0, -1))
			return net, ins
		}},
		{"conv", func() (*Network, []*tensor.Tensor) {
			net, ins := quantTestNet(t)
			for _, in := range ins[3:5] {
				in.Zero()
			}
			fc := net.Layers[len(net.Layers)-1].(*FullyConnected)
			clear(fc.weight.W.Data[2*fc.in : 3*fc.in])
			return net, ins
		}},
	}
}

// TestForwardBatchMatchesSequential is the frozen forward's
// bit-identity contract. A frozen network's Forward and every row of
// its ForwardBatch equal the Forward of an unfrozen twin — the same
// weights running MatVecAcc, the independent reference — and every
// row of QuantNetwork.ForwardBatch equals the per-sample quantized
// Forward, for an MLP and a conv+fc net, at group sizes 1 to 9 and 16
// (ragged and whole four-row blocks) and every host worker count. The
// "negzero" case feeds the logit layer all-zero rows against a −0 bias
// seed, where skipping the zero products would keep −0 and the matvec
// gives +0.
func TestForwardBatchMatchesSequential(t *testing.T) {
	for _, m := range batchTestModels(t) {
		ref, ins := m.build()
		net, _ := m.build()
		net.Freeze()
		qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
		for _, w := range []string{"1", "2", "7"} {
			t.Run(m.name+"/workers="+w, func(t *testing.T) {
				t.Setenv(parallel.EnvWorkers, w)
				var wantF, wantQ [][]float32
				for i, in := range ins {
					wantF = append(wantF, append([]float32(nil), ref.Forward(in, false).Data...))
					wantQ = append(wantQ, append([]float32(nil), qn.Forward(in).Data...))
					checkRow(t, fmt.Sprintf("frozen Forward of input %d", i), net.Forward(in, false).Data, wantF[i])
				}
				for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
					// Slide the window so the all-zero inputs land in
					// different rows and row blocks.
					off := (k * 3) % (len(ins) - k + 1)
					group := ins[off : off+k]
					checkBatchRows(t, fmt.Sprintf("float32 K=%d", k), net.ForwardBatch(group), wantF[off:off+k])
					checkBatchRows(t, fmt.Sprintf("int16 K=%d", k), qn.ForwardBatch(group), wantQ[off:off+k])
				}
			})
		}
	}
}

func checkBatchRows(t *testing.T, what string, got *tensor.Tensor, want [][]float32) {
	t.Helper()
	if got.Shape[0] != len(want) || len(got.Data) != len(want)*len(want[0]) {
		t.Fatalf("%s: batch shape %v, want %d rows of %d", what, got.Shape, len(want), len(want[0]))
	}
	c := len(want[0])
	for i, row := range want {
		checkRow(t, fmt.Sprintf("%s: row %d", what, i), got.Data[i*c:(i+1)*c], row)
	}
}

func checkRow(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j, v := range want {
		if g := got[j]; math.Float32bits(g) != math.Float32bits(v) {
			t.Fatalf("%s: logit %d = %08x, reference %08x", what, j, math.Float32bits(g), math.Float32bits(v))
		}
	}
}

// TestForwardBatchNoAllocSteadyState: once a group size has sized the
// staging, batched passes of any size up to it allocate nothing, on
// the trainable and frozen float paths and the int16 path.
func TestForwardBatchNoAllocSteadyState(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	net, ins := batchTestMLP()
	frozen, _ := batchTestMLP()
	frozen.Freeze()
	qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
	nets := []func(ins []*tensor.Tensor) *tensor.Tensor{net.ForwardBatch, frozen.ForwardBatch, qn.ForwardBatch}
	for _, f := range nets {
		f(ins[:8])
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, k := range []int{1, 3, 8} {
			for _, f := range nets {
				f(ins[:k])
			}
		}
	})
	if allocs > 0 {
		t.Errorf("batched forward allocates %v per run, want 0", allocs)
	}
}
