package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// scopeProbe is a test layer that passes its input through and records
// a copy of it, with whether the FC layer before it ran on its pack,
// so a test can read that layer's outputs from inside Network.Accuracy.
type scopeProbe struct {
	fc     *FullyConnected
	rows   [][]float32
	packed []bool
}

func (p *scopeProbe) Name() string                                         { return "probe" }
func (p *scopeProbe) Params() []*Param                                     { return nil }
func (p *scopeProbe) backwardRows(g *tensor.Tensor, _ bool) *tensor.Tensor { return g }
func (p *scopeProbe) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return p.forwardRows(in, train)
}
func (p *scopeProbe) forwardRows(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := len(x.Data) / x.Shape[0]
	for i := 0; i < x.Shape[0]; i++ {
		p.rows = append(p.rows, append([]float32(nil), x.Data[i*n:(i+1)*n]...))
		p.packed = append(p.packed, p.fc.packed)
	}
	return x
}

// fillSpecial fills s with normal values mixed with ±0, subnormals and
// ±Inf.
func fillSpecial(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(10) {
		case 0:
			s[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		case 1:
			s[i] = math.Float32frombits(uint32(1+rng.Intn(1<<20)) | uint32(rng.Intn(2))<<31)
		case 2:
			if rng.Intn(4) == 0 {
				s[i] = float32(math.Inf(rng.Intn(2)*2 - 1))
				continue
			}
			fallthrough
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

// hostNaN is the NaN the host's float unit makes for Inf·0, the payload
// of every NaN an FC sum can create; an input NaN with the same bits
// keeps the surviving payload independent of the add's operand order.
var hostNaN = mulNoFold(float32(math.Inf(1)), 0)

// TestFCForwardPackedScopes: an FC layer's outputs are bit-identical
// on all four forward paths: MatVecAcc on W (a trainable layer outside
// any scope), the pack of a trainer batch, the pack of a
// Network.Accuracy pass, and the pack of a frozen net; at K = 1
// (Forward) and K = 16 (one group of rows). The shapes
// have ragged last panels and odd input counts; W, the bias and the
// inputs hold ±0, a −0 bias, subnormals and ±Inf, and an input row at
// most one NaN.
func TestFCForwardPackedScopes(t *testing.T) {
	const k = 16
	for _, sh := range [][2]int{{1, 33}, {37, 45}, {64, 10}, {101, 77}} {
		in, out := sh[0], sh[1]
		t.Run(strconv.Itoa(in)+"x"+strconv.Itoa(out), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 * in * out)))
			fc := NewFullyConnected("ip", in, out)
			fillSpecial(rng, fc.weight.W.Data)
			fillSpecial(rng, fc.bias.W.Data)
			fc.bias.W.Data[rng.Intn(out)] = float32(math.Copysign(0, -1))
			probe := &scopeProbe{fc: fc}
			net := NewNetwork("scopes").Add(fc, probe)
			xs := make([]*tensor.Tensor, k)
			group := tensor.New(k, in)
			for i := range xs {
				xs[i] = tensor.New(in)
				fillSpecial(rng, xs[i].Data)
				if i%3 == 0 {
					xs[i].Data[rng.Intn(in)] = hostNaN
				}
				copy(group.Data[i*in:], xs[i].Data)
			}

			// The reference: MatVecAcc on W, one input at a time.
			want := make([][]float32, k)
			for i, x := range xs {
				want[i] = append([]float32(nil), net.Forward(x, false).Data...)
			}
			if fc.packed {
				t.Fatal("a trainable layer outside any scope runs on a pack")
			}
			// each runs l over the inputs one at a time and as one group.
			each := func(what string, l *FullyConnected, packed bool) {
				t.Helper()
				if l.packed != packed {
					t.Fatalf("%s: packed = %v, want %v", what, l.packed, packed)
				}
				for i, x := range xs {
					checkRow(t, what+" K=1 input "+strconv.Itoa(i), l.Forward(x, true).Data, want[i])
				}
				got := l.forwardRows(group, false)
				for i := range xs {
					checkRow(t, what+" K=16 row "+strconv.Itoa(i), got.Data[i*out:(i+1)*out], want[i])
				}
			}
			each("MatVecAcc", fc, false)

			net.packTrainableFC(true)
			each("trainer batch", fc, true)
			net.packTrainableFC(false)
			if fc.packed {
				t.Fatal("the pack outlives its trainer batch")
			}

			probe.rows, probe.packed = nil, nil
			net.Accuracy(xs, make([]int, k))
			for i, row := range probe.rows {
				if !probe.packed[i] {
					t.Fatalf("Accuracy: input %d ran off the pack", i)
				}
				checkRow(t, "Accuracy input "+strconv.Itoa(i), row, want[i])
			}
			if len(probe.rows) != k || fc.packed {
				t.Fatalf("Accuracy: %d forwards, packed after = %v", len(probe.rows), fc.packed)
			}

			net.Freeze()
			each("frozen", fc, true)
		})
	}
}

// projectBlocks zeroes two weight blocks of each FC layer of the net,
// in place after every step, as a group-Lasso Projector does.
func projectBlocks(net *Network) func() {
	return func() {
		for _, l := range net.Layers {
			fc, ok := l.(*FullyConnected)
			if !ok {
				continue
			}
			w := fc.weight.W.Data
			for o := 0; o < fc.out/2; o++ {
				clear(w[o*fc.in : o*fc.in+fc.in/3])
			}
			for o := fc.out - 2; o < fc.out; o++ {
				clear(w[o*fc.in+fc.in/2 : (o+1)*fc.in])
			}
		}
	}
}

// TestEachBatchSeesTheLastStep: every trainer batch packs the W the
// step and the AfterStep projector before it left. A batch's loss on
// net A must equal, bit for bit, the loss of the same examples on a
// net B loaded (Save/Load) with A's weights as the batch began: for a
// second Step, and for the second batch of one Fit at one and two
// workers. Freeze, too, packs the W the last step left.
func TestEachBatchSeesTheLastStep(t *testing.T) {
	load := func(t *testing.T, ckpt []byte) *Trainer {
		net, _ := batchTestMLP()
		if err := net.Load(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
		return &Trainer{Net: net, Config: DefaultSGD(), AfterStep: projectBlocks(net)}
	}
	save := func(t *testing.T, net *Network) []byte {
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	_, ins := batchTestMLP()
	labels := make([]int, len(ins))
	for i := range labels {
		labels[i] = i % 7
	}

	t.Run("Step", func(t *testing.T) {
		t.Setenv(parallel.EnvWorkers, "1")
		a, _ := batchTestMLP()
		ta := &Trainer{Net: a, Config: DefaultSGD(), AfterStep: projectBlocks(a)}
		ta.Step(ins[:4], labels[:4])
		tb := load(t, save(t, a))
		got, _ := ta.Step(ins[4:8], labels[4:8])
		want, _ := tb.Step(ins[4:8], labels[4:8])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("second Step loss %v, a Step on the loaded weights %v", got, want)
		}
	})

	t.Run("Freeze", func(t *testing.T) {
		a, _ := batchTestMLP()
		ta := &Trainer{Net: a, Config: DefaultSGD(), AfterStep: projectBlocks(a)}
		ta.Step(ins[:4], labels[:4])
		b := load(t, save(t, a)).Net
		a.Freeze()
		for i, x := range ins {
			checkRow(t, "frozen logits of input "+strconv.Itoa(i), a.Forward(x, false).Data, b.Forward(x, false).Data)
		}
	})

	// One Fit over two examples in one batch for two epochs: epoch 1's
	// loss is the batch's loss on the weights epoch 0 left, summed in a
	// shuffled order (two terms add alike in either order).
	for _, workers := range []int{1, 2} {
		t.Run("Fit/workers="+strconv.Itoa(workers), func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
			a, _ := batchTestMLP()
			cfg := DefaultSGD()
			cfg.Epochs, cfg.BatchSize = 2, 2
			var ckpt []byte
			var epochs []EpochStats
			ta := &Trainer{Net: a, Config: cfg, AfterStep: projectBlocks(a), AfterEpoch: func(s EpochStats) bool {
				if s.Epoch == 0 {
					ckpt = save(t, a)
				}
				epochs = append(epochs, s)
				return true
			}}
			ta.Fit(ins[:2], labels[:2])
			want, _ := load(t, ckpt).Step(ins[:2], labels[:2])
			if got := epochs[1].Loss; math.Float64bits(got) != math.Float64bits(want/2) {
				t.Fatalf("Fit's second batch loss %v, a Step on the loaded weights %v", got, want/2)
			}
		})
	}
}
