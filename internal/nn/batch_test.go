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

// TestForwardBatchMatchesSequential is the batched forward's
// bit-identity contract: every row of Network.ForwardBatch and
// QuantNetwork.ForwardBatch equals the per-sample Forward of its input,
// for an MLP and a conv+fc net, at every group size (ragged quads and
// multi-panel groups included) and host worker count. The "negzero"
// case feeds the logit layer all-zero rows against a −0 bias seed,
// where skipping the zero products would keep −0 and the matvec gives
// +0.
func TestForwardBatchMatchesSequential(t *testing.T) {
	type model struct {
		name string
		net  *Network
		ins  []*tensor.Tensor
	}
	mlp, mlpIns := batchTestMLP()
	neg, negIns := batchTestMLP()
	neg.Layers[3].(*FullyConnected).bias.W.Fill(-1e3) // relu2 → all zero
	neg.Layers[5].(*FullyConnected).bias.W.Data[3] = float32(math.Copysign(0, -1))
	conv, convIns := quantTestNet(t)
	for _, in := range convIns[3:5] {
		in.Zero()
	}
	fc := conv.Layers[len(conv.Layers)-1].(*FullyConnected)
	clear(fc.weight.W.Data[2*fc.in : 3*fc.in])
	models := []model{{"mlp", mlp, mlpIns}, {"negzero", neg, negIns}, {"conv", conv, convIns}}

	for _, m := range models {
		qn := QuantizeNetwork(m.net, m.ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
		for _, w := range []string{"1", "2", "7"} {
			t.Run(m.name+"/workers="+w, func(t *testing.T) {
				t.Setenv(parallel.EnvWorkers, w)
				var wantF, wantQ [][]float32
				for _, in := range m.ins {
					wantF = append(wantF, append([]float32(nil), m.net.Forward(in, false).Data...))
					wantQ = append(wantQ, append([]float32(nil), qn.Forward(in).Data...))
				}
				for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
					// Slide the window so the all-zero inputs land in
					// different rows and quads.
					off := (k * 3) % (len(m.ins) - k + 1)
					group := m.ins[off : off+k]
					checkBatchRows(t, fmt.Sprintf("float32 K=%d", k), m.net.ForwardBatch(group), wantF[off:off+k])
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
		for j, v := range row {
			if g := got.Data[i*c+j]; math.Float32bits(g) != math.Float32bits(v) {
				t.Fatalf("%s: row %d logit %d = %08x, sequential %08x", what, i, j, math.Float32bits(g), math.Float32bits(v))
			}
		}
	}
}

// TestForwardBatchNoAllocSteadyState: once a group size has sized the
// staging, batched passes of any size up to it allocate nothing, on
// both datapaths.
func TestForwardBatchNoAllocSteadyState(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	net, ins := batchTestMLP()
	qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
	net.ForwardBatch(ins[:8])
	qn.ForwardBatch(ins[:8])
	allocs := testing.AllocsPerRun(10, func() {
		for _, k := range []int{1, 3, 8} {
			net.ForwardBatch(ins[:k])
			qn.ForwardBatch(ins[:k])
		}
	})
	if allocs > 0 {
		t.Errorf("batched forward allocates %v per run, want 0", allocs)
	}
}
