package nn

import (
	"fmt"
	"math"
	"math/rand"

	"learn2scale/internal/obs"
	"learn2scale/internal/tensor"
)

// Network is an ordered stack of layers trained with softmax
// cross-entropy on class logits.
type Network struct {
	Name   string
	Layers []Layer

	// fwdSpans/bwdSpans time each layer's Forward/Backward when an
	// obs registry is attached via SetObs; nil (the default) keeps the
	// hot loops span-free.
	fwdSpans, bwdSpans []*obs.Span

	// lossGrad is the trainer's SoftmaxCrossEntropy gradient scratch,
	// one per network so replicas running concurrently never share it.
	lossGrad *tensor.Tensor

	// batch is ForwardBatch's staging.
	batch batchPass
}

// lossGradBuf returns a persistent buffer of the given shape for the
// per-example loss gradient; SoftmaxCrossEntropy overwrites every
// element, so reuse across examples is safe.
func (n *Network) lossGradBuf(shape []int) *tensor.Tensor {
	if n.lossGrad == nil || !shapeEq(n.lossGrad.Shape, shape) {
		n.lossGrad = tensor.New(shape...)
	}
	return n.lossGrad
}

// NewNetwork creates an empty network.
func NewNetwork(name string) *Network { return &Network{Name: name} }

// Add appends layers to the network and returns it for chaining.
func (n *Network) Add(layers ...Layer) *Network {
	n.Layers = append(n.Layers, layers...)
	return n
}

// Init initializes every initializable layer from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			t.Init(rng)
		case *FullyConnected:
			t.Init(rng)
		}
	}
}

// ShareClone returns a replica network for data-parallel gradient
// evaluation: every layer shares its parameter values with the
// receiver but owns fresh gradient accumulators and private scratch,
// so replicas may run Forward(train)+Backward concurrently while
// nobody updates the shared weights. Returns false when any
// layer cannot be replicated (e.g. Dropout, whose RNG stream is
// inherently sequential); callers then fall back to serial evaluation.
func (n *Network) ShareClone() (*Network, bool) {
	c := &Network{
		Name:     n.Name,
		Layers:   make([]Layer, 0, len(n.Layers)),
		fwdSpans: n.fwdSpans, // spans are concurrency-safe; replicas share them
		bwdSpans: n.bwdSpans,
	}
	for _, l := range n.Layers {
		sc, ok := l.(ShareCloner)
		if !ok {
			return nil, false
		}
		c.Layers = append(c.Layers, sc.ShareClone())
	}
	return c, true
}

// Freeze makes the network inference-only, for serving. Each
// fully-connected layer packs its weights once into the output-lane
// panels of tensor.PackFC and from then on runs tensor.FCForward in
// Forward and ForwardBatch: a lone input fills every vector lane, and
// the outputs stay bit-identical to the MatVecAcc forward they replace,
// at any group size. Every parameter is marked frozen and drops any
// gradient and momentum a past training run left behind, so the net
// holds its weights and one packed copy of its FC weights.
//
// A frozen net cannot train: Backward and an SGD step panic, naming the
// parameter, and Load returns an error. This holds whether or not the
// net ever trained. Its weights must not change after Freeze, or the
// packed copies go stale. ShareClone replicas of a frozen net are
// frozen. Freeze is idempotent.
func (n *Network) Freeze() {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok && fc.packed == nil {
			fc.packed = make([]float32, tensor.PackFCSize(fc.out, fc.in))
			tensor.PackFC(fc.packed, fc.weight.W.Data, fc.out, fc.in)
		}
		for _, p := range l.Params() {
			p.frozen, p.G, p.V = true, nil, nil
		}
	}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// WeightParams returns the decaying (weight, not bias) parameters of
// layers that carry weights, in layer order.
func (n *Network) WeightParams() []*Param {
	var ps []*Param
	for _, p := range n.Params() {
		if p.Decay {
			ps = append(ps, p)
		}
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.W.Len()
	}
	return c
}

// Forward runs inference and returns the class logits.
func (n *Network) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	x := in
	if n.fwdSpans == nil {
		for _, l := range n.Layers {
			x = l.Forward(x, train)
		}
		return x
	}
	for i, l := range n.Layers {
		tm := n.fwdSpans[i].Start()
		x = l.Forward(x, train)
		tm.Stop()
	}
	return x
}

// Backward propagates dLoss/dLogits through the network, accumulating
// parameter gradients.
func (n *Network) Backward(gradLogits *tensor.Tensor) {
	g := gradLogits
	if n.bwdSpans == nil {
		for i := len(n.Layers) - 1; i >= 0; i-- {
			g = n.Layers[i].Backward(g)
		}
		return
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		tm := n.bwdSpans[i].Start()
		g = n.Layers[i].Backward(g)
		tm.Stop()
	}
}

// Predict returns the argmax class for one example.
func (n *Network) Predict(in *tensor.Tensor) int {
	logits := n.Forward(in, false)
	return argmax(logits.Data)
}

func argmax(xs []float32) int {
	best, bi := float32(math.Inf(-1)), -1
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// SoftmaxCrossEntropy computes the loss for one example and writes
// dLoss/dLogits into grad (same length as logits) if grad is non-nil.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int, grad *tensor.Tensor) float64 {
	n := logits.Len()
	if label < 0 || label >= n {
		panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, n))
	}
	maxv := logits.Data[0]
	for _, v := range logits.Data[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for _, v := range logits.Data {
		sum += math.Exp(float64(v - maxv))
	}
	logSum := math.Log(sum)
	loss := logSum - float64(logits.Data[label]-maxv)
	if grad != nil {
		for i, v := range logits.Data {
			p := math.Exp(float64(v-maxv)) / sum
			grad.Data[i] = float32(p)
			if i == label {
				grad.Data[i] -= 1
			}
		}
	}
	return loss
}

// Accuracy evaluates classification accuracy over a labelled set.
func (n *Network) Accuracy(inputs []*tensor.Tensor, labels []int) float64 {
	return accuracy(n.Predict, inputs, labels)
}

// accuracy is the top-1 loop shared by the float and quantized
// networks: the fraction of inputs whose predicted class matches its
// label, 0 on an empty set.
func accuracy(predict func(*tensor.Tensor) int, inputs []*tensor.Tensor, labels []int) float64 {
	if len(inputs) != len(labels) {
		panic("nn: Accuracy input/label count mismatch")
	}
	if len(inputs) == 0 {
		return 0
	}
	correct := 0
	for i, in := range inputs {
		if predict(in) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs))
}
