package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"learn2scale/internal/fixed"
	"learn2scale/internal/tensor"
)

func quantTestNet(t *testing.T) (*Network, []*tensor.Tensor) {
	t.Helper()
	net := NewNetwork("quant-test").Add(
		NewConv2D("conv1", 2, 8, 8, 8, 3, 1, 1, 1),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 8, 8, 8, 2, 2),
		NewConv2D("conv2", 8, 4, 4, 8, 3, 1, 1, 2), // grouped
		NewReLU("relu2"),
		NewFlatten("flat"),
		NewFullyConnected("fc", 8*4*4, 5),
	)
	rng := rand.New(rand.NewSource(42))
	net.Init(rng)
	ins := make([]*tensor.Tensor, 16)
	for i := range ins {
		in := tensor.New(2, 8, 8)
		in.RandN(rng, 1)
		ins[i] = in
	}
	return net, ins
}

// TestQuantNetworkCloseToFloat pins the end-to-end requantizing path:
// int16 logits must track the float logits within a small fraction of
// the float activation range, for both calibrators.
func TestQuantNetworkCloseToFloat(t *testing.T) {
	for _, cfg := range []CalibConfig{
		{Method: fixed.CalibMaxAbs},
		{Method: fixed.CalibPercentile, Percentile: 99.9},
	} {
		net, ins := quantTestNet(t)
		qn := QuantizeNetwork(net, ins[:8], cfg)
		for _, in := range ins {
			want := append([]float32(nil), net.Forward(in, false).Data...)
			got := qn.Forward(in).Data
			rangeF := 0.0
			for _, v := range want {
				if a := math.Abs(float64(v)); a > rangeF {
					rangeF = a
				}
			}
			for i := range want {
				if diff := math.Abs(float64(got[i] - want[i])); diff > 0.03*rangeF+1e-4 {
					t.Fatalf("%s logit %d: quant %g vs float %g (range %g)",
						cfg.Method, i, got[i], want[i], rangeF)
				}
			}
		}
	}
}

// TestQuantNetworkDeterministic pins run-to-run bit-identity of the
// quantized forward (integer arithmetic plus elementwise dequant).
func TestQuantNetworkDeterministic(t *testing.T) {
	net, ins := quantTestNet(t)
	qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
	first := append([]float32(nil), qn.Forward(ins[0]).Data...)
	for r := 0; r < 3; r++ {
		for _, in := range ins[1:] {
			qn.Forward(in)
		}
		got := qn.Forward(ins[0]).Data
		for i := range first {
			if math.Float32bits(got[i]) != math.Float32bits(first[i]) {
				t.Fatalf("run %d logit %d: %x vs %x", r, i,
					math.Float32bits(got[i]), math.Float32bits(first[i]))
			}
		}
	}
}

// TestQuantAndFloatForwardConcurrently runs the float network and its
// int16 twin on separate goroutines over the same inputs and checks
// each against its serial logits. The twin's ReLU, pooling, LRN and
// Flatten run on private copies, so under -race this also proves the
// two paths share no activation buffer; Dropout is an inference
// pass-through and stays shared.
func TestQuantAndFloatForwardConcurrently(t *testing.T) {
	net := NewNetwork("quant-concurrent").Add(
		NewConv2D("conv1", 2, 8, 8, 8, 3, 1, 1, 1),
		NewReLU("relu1"),
		NewLRN("norm1", 8, 8, 8, 5, 1e-4, 0.75, 1),
		NewMaxPool2D("pool1", 8, 8, 8, 2, 2),
		NewConv2D("conv2", 8, 4, 4, 8, 3, 1, 1, 2),
		NewReLU("relu2"),
		NewAvgPool2D("pool2", 8, 4, 4, 2, 2),
		NewFlatten("flat"),
		NewDropout("drop", 0.5, rand.New(rand.NewSource(1))),
		NewFullyConnected("fc", 8*2*2, 5),
	)
	rng := rand.New(rand.NewSource(42))
	net.Init(rng)
	ins := make([]*tensor.Tensor, 12)
	for i := range ins {
		ins[i] = tensor.New(2, 8, 8)
		ins[i].RandN(rng, 1)
	}
	qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
	wantF := make([][]float32, len(ins))
	wantQ := make([][]float32, len(ins))
	for i, in := range ins {
		wantF[i] = append([]float32(nil), net.Forward(in, false).Data...)
		wantQ[i] = append([]float32(nil), qn.Forward(in).Data...)
	}
	check := func(path string, i int, got, want []float32) error {
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				return fmt.Errorf("%s input %d logit %d: concurrent %g, serial %g", path, i, j, got[j], want[j])
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < 4 && errs[0] == nil; r++ {
			for i, in := range ins {
				if errs[0] = check("float", i, net.Forward(in, false).Data, wantF[i]); errs[0] != nil {
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 4 && errs[1] == nil; r++ {
			for i, in := range ins {
				if errs[1] = check("int16", i, qn.Forward(in).Data, wantQ[i]); errs[1] != nil {
					return
				}
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuantConvMatchesDequantReference checks one quantized conv layer
// against an explicit float conv over the *dequantized* operands: the
// int16 GEMM plus per-channel dequant must equal (to float32 rounding)
// a reference convolution computed on deq(q(w)) and deq(q(x)).
func TestQuantConvMatchesDequantReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewConv2D("conv", 3, 6, 6, 4, 3, 1, 1, 1)
	l.Init(rng)
	in := tensor.New(3, 6, 6)
	in.RandN(rng, 1)

	q := newQuantConv(l, fixed.MaxAbs(in.Data))
	got := q.forwardRows(addRow(new(tensor.Tensor), in))

	// Dequantized operands.
	g := l.geom
	rows := g.InC * g.KH * g.KW
	qw := make([]int16, rows)
	deqW := make([]float32, g.OutC*rows)
	for oc := 0; oc < g.OutC; oc++ {
		fixed.QuantizeScaledQ(qw, l.weight.W.Data[oc*rows:(oc+1)*rows], q.wScales[oc], q.qmax)
		fixed.DequantizeScaled(deqW[oc*rows:(oc+1)*rows], qw, q.wScales[oc])
	}
	qx := make([]int16, in.Len())
	deqX := make([]float32, in.Len())
	fixed.QuantizeScaledQ(qx, in.Data, q.inScale, q.qmax)
	fixed.DequantizeScaled(deqX, qx, q.inScale)

	want := make([]float32, g.OutC*g.OutH*g.OutW)
	tensor.ConvRef(want, deqX, deqW, l.bias.W.Data, g)

	for i := range want {
		// The quantized path computes scale·(int32 dot) + bias in one
		// rounding; the reference rounds per product. Allow small
		// float32 slack.
		if diff := math.Abs(float64(got.Data[i] - want[i])); diff > 1e-3 {
			t.Fatalf("element %d: quant %g vs dequant-reference %g", i, got.Data[i], want[i])
		}
	}
}

// TestQuantFCMatchesDequantReference does the same for the FC layer.
func TestQuantFCMatchesDequantReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewFullyConnected("fc", 37, 11)
	l.Init(rng)
	in := tensor.New(37)
	in.RandN(rng, 1)

	q := newQuantFC(l, fixed.MaxAbs(in.Data))
	got := q.forwardRows(addRow(new(tensor.Tensor), in))

	qx := make([]int16, l.in)
	fixed.QuantizeScaledQ(qx, in.Data, q.inScale, q.qmax)
	qw := make([]int16, l.in)
	for o := 0; o < l.out; o++ {
		fixed.QuantizeScaledQ(qw, l.weight.W.Data[o*l.in:(o+1)*l.in], q.wScales[o], q.qmax)
		acc := int64(0)
		for i := 0; i < l.in; i++ {
			acc += int64(qw[i]) * int64(qx[i])
		}
		want := float32(acc)*q.inScale*q.wScales[o] + l.bias.W.Data[o]
		if math.Float32bits(got.Data[o]) != math.Float32bits(want) {
			t.Fatalf("output %d: %g vs %g", o, got.Data[o], want)
		}
	}
}

// TestQuantizeNetworkFallback checks non-conv/FC layers are wrapped,
// not dropped, and that Scales reports one entry per quantized layer.
func TestQuantizeNetworkFallback(t *testing.T) {
	net, ins := quantTestNet(t)
	qn := QuantizeNetwork(net, ins[:2], CalibConfig{Method: fixed.CalibMaxAbs})
	if len(qn.layers) != len(net.Layers) {
		t.Fatalf("quant network has %d layers, want %d", len(qn.layers), len(net.Layers))
	}
	scales := qn.Scales()
	want := []string{"conv1", "conv2", "fc"}
	if len(scales) != len(want) {
		t.Fatalf("Scales() has %d entries, want %d: %v", len(scales), len(want), scales)
	}
	for _, name := range want {
		if scales[name] <= 0 {
			t.Errorf("layer %s: scale %g, want > 0", name, scales[name])
		}
	}
	// Accuracy runs end to end.
	labels := make([]int, len(ins))
	for i := range labels {
		labels[i] = i % 5
	}
	if acc := qn.Accuracy(ins, labels); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %g out of range", acc)
	}
}

// BenchmarkQuantizedForwardAlloc pins the steady-state allocation
// behavior of the quantized forward: zero after warm-up.
func TestQuantForwardNoAllocSteadyState(t *testing.T) {
	net, ins := quantTestNet(t)
	qn := QuantizeNetwork(net, ins[:2], CalibConfig{Method: fixed.CalibMaxAbs})
	qn.Forward(ins[0]) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		qn.Forward(ins[1])
	})
	if allocs > 0 {
		t.Errorf("quantized forward allocates %v per run, want 0", allocs)
	}
}

// TestQuantAccuracyRowsMatchesPredict holds the int16 twin of a net
// with grouped conv, LRN, max and average pooling to its per-input
// path: every row of ForwardBatch equals Forward bit for bit at group
// sizes 1, 3 and accuracyRows, and Accuracy, which classifies groups
// of accuracyRows as K rows, equals the Predict loop over three whole
// groups and a ragged one.
func TestQuantAccuracyRowsMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := NewNetwork("quant-rows").Add(
		NewConv2D("conv1", 2, 9, 9, 6, 3, 1, 1, 2),
		NewLRN("norm1", 6, 9, 9, 5, 0, 0, 0),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 6, 9, 9, 3, 2),
		NewConv2D("conv2", 6, 4, 4, 8, 3, 1, 1, 1),
		NewReLU("relu2"),
		NewAvgPool2D("pool2", 8, 4, 4, 2, 2),
		NewFlatten("flat"),
		NewFullyConnected("fc", 8*2*2, 7),
	)
	net.Init(rng)
	ins := make([]*tensor.Tensor, 3*accuracyRows+5)
	for i := range ins {
		ins[i] = tensor.New(2, 9, 9)
		if i%11 != 3 {
			ins[i].RandN(rng, 1)
		}
	}
	qn := QuantizeNetwork(net, ins[:4], CalibConfig{Method: fixed.CalibMaxAbs})
	want := make([][]float32, len(ins))
	labels := make([]int, len(ins))
	for i, in := range ins {
		want[i] = append([]float32(nil), qn.Forward(in).Data...)
		labels[i] = qn.Predict(in)
	}
	for _, k := range []int{1, 3, accuracyRows} {
		off := 5 % (len(ins) - k + 1)
		checkBatchRows(t, fmt.Sprintf("int16 K=%d", k), qn.ForwardBatch(ins[off:off+k]), want[off:off+k])
	}
	if got := qn.Accuracy(ins, labels); got != 1 {
		t.Fatalf("Accuracy with Predict's labels = %v, want 1", got)
	}
	right := 0
	for i := range labels {
		if i%3 == 0 {
			labels[i] = (labels[i] + 1) % 7
		}
		if labels[i] == qn.Predict(ins[i]) {
			right++
		}
	}
	if got, w := qn.Accuracy(ins, labels), float64(right)/float64(len(ins)); got != w {
		t.Fatalf("Accuracy = %v, the Predict loop %v", got, w)
	}
}
