package nn

import (
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/fixed"
	"learn2scale/internal/tensor"
)

// numericalGrad estimates dLoss/dθ for a single parameter element by
// central differences, where loss is softmax CE of the network output.
func numericalGrad(net *Network, in *tensor.Tensor, label int, w []float32, i int) float64 {
	const eps = 1e-3
	orig := w[i]
	w[i] = orig + eps
	lp := SoftmaxCrossEntropy(net.Forward(in, false), label, nil)
	w[i] = orig - eps
	lm := SoftmaxCrossEntropy(net.Forward(in, false), label, nil)
	w[i] = orig
	return (lp - lm) / (2 * eps)
}

// backRow runs a layer's backward pass on one example as a group of
// one row, through headers it keeps between calls, so a steady loop of
// it allocates nothing: the per-example pass that a trainer batch of K
// rows must match.
type backRow struct{ gradOut, gradIn tensor.Tensor }

func (v *backRow) layer(l Layer, g *tensor.Tensor) *tensor.Tensor {
	return dropRow(&v.gradIn, l.backwardRows(addRow(&v.gradOut, g), true))
}

// backward is l's backward pass on one example's output gradient.
func backward(l Layer, g *tensor.Tensor) *tensor.Tensor { return new(backRow).layer(l, g) }

// netBackward propagates one example's logit gradient through n,
// adding its parameter gradients.
func netBackward(n *Network, g *tensor.Tensor) { n.backwardRows(addRow(new(tensor.Tensor), g)) }

// checkGradients verifies analytic gradients against central
// differences for every parameter of the network on one example.
func checkGradients(t *testing.T, net *Network, in *tensor.Tensor, label int, tol float64) {
	t.Helper()
	for _, p := range net.Params() {
		p.Grad().Zero()
	}
	logits := net.Forward(in, true)
	grad := tensor.New(logits.Shape...)
	SoftmaxCrossEntropy(logits, label, grad)
	netBackward(net, grad)

	rng := rand.New(rand.NewSource(7))
	for _, p := range net.Params() {
		n := p.W.Len()
		checks := 8
		if n < checks {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := rng.Intn(n)
			want := numericalGrad(net, in, label, p.W.Data, i)
			got := float64(p.G.Data[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestFullyConnectedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork("fc-test").Add(
		NewFullyConnected("fc1", 6, 8),
		NewReLU("relu1"),
		NewFullyConnected("fc2", 8, 4),
	)
	net.Init(rng)
	in := tensor.New(6)
	in.RandN(rng, 1)
	checkGradients(t, net, in, 2, 2e-2)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork("conv-test").Add(
		NewConv2D("conv1", 2, 6, 6, 4, 3, 1, 1, 1),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 4, 6, 6, 2, 2),
		NewFlatten("flat"),
		NewFullyConnected("fc", 4*3*3, 3),
	)
	net.Init(rng)
	in := tensor.New(2, 6, 6)
	in.RandN(rng, 1)
	checkGradients(t, net, in, 1, 2e-2)
}

func TestGroupedConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork("gconv-test").Add(
		NewConv2D("conv1", 4, 5, 5, 6, 3, 1, 0, 2), // 2 groups
		NewReLU("relu1"),
		NewFlatten("flat"),
		NewFullyConnected("fc", 6*3*3, 3),
	)
	net.Init(rng)
	in := tensor.New(4, 5, 5)
	in.RandN(rng, 1)
	checkGradients(t, net, in, 0, 2e-2)
}

// Grouped conv must give the same result as running each group's
// smaller conv independently on its channel slice.
func TestGroupedConvEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	full := NewConv2D("g", 4, 6, 6, 8, 3, 1, 1, 2)
	full.Init(rng)
	in := tensor.New(4, 6, 6)
	in.RandN(rng, 1)
	out := full.Forward(in, false)

	for g := 0; g < 2; g++ {
		sub := NewConv2D("sub", 2, 6, 6, 4, 3, 1, 1, 1)
		// Copy the group's weights/biases into the standalone conv.
		copy(sub.Weight().W.Data, full.Weight().W.Data[g*4*2*9:(g+1)*4*2*9])
		copy(sub.Params()[1].W.Data, full.Params()[1].W.Data[g*4:(g+1)*4])
		subIn := tensor.FromSlice(in.Data[g*2*36:(g+1)*2*36], 2, 6, 6)
		subOut := sub.Forward(subIn, false)
		for i, v := range subOut.Data {
			if got := out.Data[g*4*36+i]; math.Abs(float64(got-v)) > 1e-4 {
				t.Fatalf("group %d mismatch at %d: %v vs %v", g, i, got, v)
			}
		}
	}
}

func TestConvGroupsMustDivide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewConv2D with non-dividing groups must panic")
		}
	}()
	NewConv2D("bad", 4, 6, 6, 6, 3, 1, 0, 4)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 3}, 3)
	grad := tensor.New(3)
	loss := SoftmaxCrossEntropy(logits, 2, grad)
	// softmax(1,2,3) ≈ (0.0900, 0.2447, 0.6652); loss = −ln(0.6652).
	if math.Abs(loss-0.4076) > 1e-3 {
		t.Errorf("loss = %v, want ~0.4076", loss)
	}
	if math.Abs(float64(grad.Data[2])-(0.6652-1)) > 1e-3 {
		t.Errorf("grad[label] = %v", grad.Data[2])
	}
	sum := float64(0)
	for _, g := range grad.Data {
		sum += float64(g)
	}
	if math.Abs(sum) > 1e-5 {
		t.Errorf("softmax CE gradient must sum to 0, got %v", sum)
	}
}

func TestSoftmaxCrossEntropyNumericallyStable(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 1001, 999}, 3)
	loss := SoftmaxCrossEntropy(logits, 1, nil)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v with huge logits", loss)
	}
}

func TestDropoutInferencePassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout("drop", 0.5, rng)
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	out := d.Forward(in, false)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("dropout must be identity at inference")
		}
	}
}

func TestDropoutTrainingScalesSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout("drop", 0.5, rng)
	in := tensor.New(10000)
	fill(in, 1)
	out := d.Forward(in, true)
	sum := 0.0
	for _, v := range out.Data {
		if v != 0 && math.Abs(float64(v)-2.0) > 1e-6 {
			t.Fatalf("survivor scaled to %v, want 2", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(in.Len())
	if math.Abs(mean-1.0) > 0.1 {
		t.Errorf("inverted dropout mean = %v, want ~1", mean)
	}
}

// Training must drive loss down and reach high accuracy on a linearly
// separable toy problem.
func TestTrainerLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, dim, classes = 120, 8, 3
	inputs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range inputs {
		lbl := i % classes
		x := tensor.New(dim)
		x.RandN(rng, 0.3)
		x.Data[lbl] += 2.5 // class-indicative coordinate
		inputs[i] = x
		labels[i] = lbl
	}
	net := NewNetwork("toy").Add(
		NewFullyConnected("fc1", dim, 16),
		NewReLU("relu"),
		NewFullyConnected("fc2", 16, classes),
	)
	net.Init(rng)
	tr := &Trainer{Net: net, Config: SGDConfig{
		LearningRate: 0.1, Momentum: 0.9, BatchSize: 8, Epochs: 15, LRDecay: 1, Seed: 1,
	}}
	stats := tr.Fit(inputs, labels)
	if stats.TrainAcc < 0.95 {
		t.Errorf("train accuracy = %v, want >= 0.95", stats.TrainAcc)
	}
	if acc := net.Accuracy(inputs, labels); acc < 0.95 {
		t.Errorf("eval accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainerEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := []*tensor.Tensor{tensor.New(4), tensor.New(4)}
	labels := []int{0, 1}
	inputs[0].Data[0] = 1
	inputs[1].Data[1] = 1
	net := NewNetwork("stop").Add(NewFullyConnected("fc", 4, 2))
	net.Init(rng)
	epochs := 0
	tr := &Trainer{
		Net:    net,
		Config: SGDConfig{LearningRate: 0.1, Epochs: 50, BatchSize: 2, Seed: 1},
		AfterEpoch: func(s EpochStats) bool {
			epochs++
			return epochs < 3
		},
	}
	tr.Fit(inputs, labels)
	if epochs != 3 {
		t.Errorf("early stop after %d epochs, want 3", epochs)
	}
}

// The int16 path must agree with the float path on a trained network
// for the overwhelming majority of examples, and quantizing must leave
// the float network's weights untouched.
func TestQuantizedForwardAgreesWithFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, dim, classes = 60, 8, 3
	inputs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i := range inputs {
		lbl := i % classes
		x := tensor.New(dim)
		x.RandN(rng, 0.3)
		x.Data[lbl] += 2.5
		inputs[i] = x
		labels[i] = lbl
	}
	net := NewNetwork("quant").Add(
		NewFullyConnected("fc1", dim, 12),
		NewReLU("relu"),
		NewFullyConnected("fc2", 12, classes),
	)
	net.Init(rng)
	tr := &Trainer{Net: net, Config: SGDConfig{
		LearningRate: 0.1, Momentum: 0.9, BatchSize: 8, Epochs: 10, LRDecay: 1, Seed: 2,
	}}
	tr.Fit(inputs, labels)

	before := net.Params()[0].W.Clone()
	qn := QuantizeNetwork(net, inputs[:16], CalibConfig{Method: fixed.CalibMaxAbs})
	agree := 0
	for _, in := range inputs {
		if net.Predict(in) == qn.Predict(in) {
			agree++
		}
	}
	if float64(agree)/float64(n) < 0.9 {
		t.Errorf("quantized/float agreement = %d/%d, want >= 90%%", agree, n)
	}
	after := net.Params()[0].W
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("QuantizeNetwork/Forward must not mutate the float weights")
		}
	}
}

func TestNetworkOutShapePlumbing(t *testing.T) {
	net := NewNetwork("shapes").Add(
		NewConv2D("c1", 1, 28, 28, 8, 5, 1, 0, 1),
		NewMaxPool2D("p1", 8, 24, 24, 2, 2),
		NewFlatten("f"),
		NewFullyConnected("fc", 8*12*12, 10),
	)
	x := tensor.New(1, 28, 28)
	for _, l := range net.Layers {
		x = l.Forward(x, false)
	}
	if len(x.Shape) != 1 || x.Shape[0] != 10 {
		t.Errorf("final shape = %v, want [10]", x.Shape)
	}
}

// fill sets every element of x to v.
func fill(x *tensor.Tensor, v float32) {
	for i := range x.Data {
		x.Data[i] = v
	}
}

func TestParamCount(t *testing.T) {
	net := NewNetwork("count").Add(
		NewFullyConnected("fc1", 10, 5),
		NewFullyConnected("fc2", 5, 2),
	)
	want := 10*5 + 5 + 5*2 + 2
	got := 0
	for _, p := range net.Params() {
		got += p.W.Len()
	}
	if got != want {
		t.Errorf("parameter scalars = %d, want %d", got, want)
	}
	if len(net.WeightParams()) != 2 {
		t.Errorf("WeightParams = %d, want 2", len(net.WeightParams()))
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("bench", 8, 28, 28, 16, 5, 1, 0, 1)
	conv.Init(rng)
	in := tensor.New(8, 28, 28)
	in.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(in, false)
	}
}

func BenchmarkFCForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fc := NewFullyConnected("bench", 784, 512)
	fc.Init(rng)
	in := tensor.New(784)
	in.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Forward(in, false)
	}
}
