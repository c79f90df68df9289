package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"learn2scale/internal/tensor"
)

// Property: convolution is linear in its input:
// conv(a·x + b·y) == a·conv(x) + b·conv(y) (bias removed).
func TestQuickConvLinearity(t *testing.T) {
	conv := NewConv2D("lin", 2, 6, 6, 3, 3, 1, 1, 1)
	conv.Init(rand.New(rand.NewSource(1)))
	conv.Params()[1].W.Zero() // drop bias for exact linearity
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 6, 6)
		y := tensor.New(2, 6, 6)
		x.RandN(rng, 1)
		y.RandN(rng, 1)
		a := float32(rng.NormFloat64())
		b := float32(rng.NormFloat64())
		mix := tensor.New(2, 6, 6)
		for i := range mix.Data {
			mix.Data[i] = a*x.Data[i] + b*y.Data[i]
		}
		// Forward returns the layer-owned buffer, so clone the results
		// retained across calls.
		got := conv.Forward(mix, false).Clone()
		fx := conv.Forward(x, false).Clone()
		fy := conv.Forward(y, false)
		for i := range got.Data {
			want := a*fx.Data[i] + b*fy.Data[i]
			if math.Abs(float64(got.Data[i]-want)) > 1e-3*(1+math.Abs(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the forward pass is deterministic outside training mode.
func TestQuickForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork("det").Add(
		NewConv2D("c", 1, 8, 8, 4, 3, 1, 1, 1),
		NewReLU("r"),
		NewMaxPool2D("p", 4, 8, 8, 2, 2),
		NewFlatten("f"),
		NewDropout("d", 0.5, rng),
		NewFullyConnected("fc", 4*4*4, 5),
	)
	net.Init(rng)
	f := func(seed int64) bool {
		r2 := rand.New(rand.NewSource(seed))
		in := tensor.New(1, 8, 8)
		in.RandN(r2, 1)
		a := net.Forward(in, false).Clone() // layer-owned buffer; clone before rerunning
		b := net.Forward(in, false)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: ReLU is idempotent and non-negative.
func TestQuickReLUIdempotent(t *testing.T) {
	relu := NewReLU("r")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(16)
		in.RandN(rng, 2)
		once := relu.Forward(in, false).Clone() // layer-owned buffer; clone before rerunning
		twice := relu.Forward(once, false)
		for i := range once.Data {
			if once.Data[i] < 0 || once.Data[i] != twice.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: softmax CE loss is non-negative and its gradient sums to 0
// for any logits and label.
func TestQuickSoftmaxCEProperties(t *testing.T) {
	f := func(seed int64, labelRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := tensor.New(7)
		logits.RandN(rng, 3)
		label := int(labelRaw) % 7
		grad := tensor.New(7)
		loss := SoftmaxCrossEntropy(logits, label, grad)
		if loss < 0 {
			return false
		}
		sum := 0.0
		for _, g := range grad.Data {
			sum += float64(g)
		}
		return math.Abs(sum) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: max pooling dominates average pooling elementwise for the
// same geometry.
func TestQuickMaxDominatesAvg(t *testing.T) {
	mx := NewMaxPool2D("m", 2, 6, 6, 2, 2)
	av := NewAvgPool2D("a", 2, 6, 6, 2, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(2, 6, 6)
		in.RandN(rng, 1)
		mo := mx.Forward(in, false)
		ao := av.Forward(in, false)
		for i := range mo.Data {
			if mo.Data[i] < ao.Data[i]-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: one SGD step with a zero gradient leaves weights unchanged
// (no hidden decay outside the configured terms).
func TestQuickZeroGradNoChange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork("z").Add(NewFullyConnected("fc", 4, 3))
	net.Init(rng)
	before := net.Params()[0].W.Clone()
	for _, p := range net.Params() {
		g := p.Grad()
		g.Zero()
		// Hand-rolled momentum step with zero gradient.
		v := make([]float32, p.W.Len())
		for i := range p.W.Data {
			v[i] = 0.9*v[i] - 0.05*g.Data[i]
			p.W.Data[i] += v[i]
		}
	}
	for i := range before.Data {
		if before.Data[i] != net.Params()[0].W.Data[i] {
			t.Fatal("zero gradient changed weights")
		}
	}
}

// Property: Backward is a pure function of (lastIn, gradOut) — calling
// it twice with the same inputs yields bit-identical input gradients.
// Pins the buffer-reuse contract: reused scratch (gradIn, gradCol,
// packed panels) must not leak state between calls. A violation here
// compounds through deep conv stacks until training diverges.
func TestBackwardRepeatIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv := NewConv2D("rep", 4, 8, 8, 6, 3, 1, 1, 2)
	conv.Init(rng)
	in := tensor.New(4, 8, 8)
	in.RandN(rng, 1)
	gradOut := tensor.New(6, 8, 8)
	gradOut.RandN(rng, 1)

	conv.Forward(in, true)
	first := conv.Backward(gradOut).Clone()
	firstGW := conv.Weight().G.Clone()
	// Same inputs again: every reused buffer must be re-initialized.
	// Parameter gradients accumulate by contract (the trainer zeroes
	// them per batch), so reset them to isolate scratch-buffer leaks.
	for _, p := range conv.Params() {
		p.G.Zero()
	}
	conv.Forward(in, true)
	second := conv.Backward(gradOut)
	for i := range first.Data {
		if first.Data[i] != second.Data[i] {
			t.Fatalf("gradIn[%d] changed across identical Backward calls: %g then %g",
				i, first.Data[i], second.Data[i])
		}
	}
	for i := range firstGW.Data {
		if firstGW.Data[i] != conv.Weight().G.Data[i] {
			t.Fatalf("gradW[%d] not repeatable: %g then %g",
				i, firstGW.Data[i], conv.Weight().G.Data[i])
		}
	}
}

// Regression: a three-conv-block network must train without
// diverging. An unzeroed Col2Im scatter buffer once made exactly this
// shape blow up to NaN within one epoch (shallower stacks masked it).
func TestDeepConvStackTrainsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork("deep").Add(
		NewConv2D("c1", 3, 16, 16, 16, 5, 1, 2, 1),
		NewReLU("r1"),
		NewMaxPool2D("p1", 16, 16, 16, 2, 2),
		NewConv2D("c2", 16, 8, 8, 32, 5, 1, 2, 1),
		NewReLU("r2"),
		NewMaxPool2D("p2", 32, 8, 8, 2, 2),
		NewConv2D("c3", 32, 4, 4, 64, 3, 1, 1, 1),
		NewReLU("r3"),
		NewMaxPool2D("p3", 64, 4, 4, 2, 2),
		NewFlatten("f"),
		NewFullyConnected("fc", 64*2*2, 10),
	)
	net.Init(rng)

	inputs := make([]*tensor.Tensor, 24)
	labels := make([]int, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.New(3, 16, 16)
		inputs[i].RandN(rng, 1)
		labels[i] = i % 10
	}
	cfg := DefaultSGD()
	cfg.Epochs = 2
	cfg.LearningRate = 0.005
	cfg.BatchSize = 4
	tr := &Trainer{Net: net, Config: cfg}
	ep := tr.Fit(inputs, labels)
	if math.IsNaN(ep.Loss) || math.IsInf(ep.Loss, 0) || ep.Loss > 50 {
		t.Fatalf("deep conv stack diverged: epoch loss = %v", ep.Loss)
	}
}
