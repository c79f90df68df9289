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

	// batch is ForwardBatch's staging, and the gathered inputs of a
	// trainer batch that runs as K rows.
	batch batchPass
	// lossRows holds the K rows of a K-row batch's loss gradients;
	// rowView is one row of the logits and one of lossRows.
	lossRows tensor.Tensor
	rowView  [2]tensor.Tensor
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
// receiver and owns private scratch. A conv layer owns fresh gradient
// accumulators; an FC layer shares the receiver's batch rows, through
// which the Trainer's batch adds its examples into the receiver's G.
// So replicas may run Forward(train) and the Trainer's backward pass
// concurrently while nobody updates the shared weights; a direct
// Backward on an FC replica uses the shared rows and is not safe
// concurrently with another. Returns false when any
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
// fully-connected layer packs its weights into the output-lane panels
// of tensor.PackFC and from then on runs tensor.FCForward in Forward
// and ForwardBatch: a lone input fills every vector lane, and the
// outputs stay bit-identical to the MatVecAcc forward, at any group
// size. The pack reuses the buffer training packed into, and is always
// made afresh, since an AfterStep projector may have changed W after
// the last batch's pack. Every parameter is marked frozen and drops
// any gradient and momentum a past training run left behind, and every
// FC layer its batch rows, so the net holds its weights and one packed
// copy of its FC weights.
//
// A frozen net cannot train: Backward and an SGD step panic, naming the
// parameter, and Load returns an error. This holds whether or not the
// net ever trained. Its weights must not change after Freeze, or the
// packed copies go stale. ShareClone replicas of a frozen net are
// frozen. Freeze is idempotent.
func (n *Network) Freeze() {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok {
			*fc.batch = fcBatch{wp: fc.batch.wp}
			fc.pack()
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
// parameter gradients. No one reads the input gradient of the net, so
// the pass stops at the first layer that holds params, which adds its
// param gradients and computes no input gradient.
func (n *Network) Backward(gradLogits *tensor.Tensor) {
	n.backward(gradLogits, -1)
}

// gradLayer is a layer whose backward pass the network drives itself:
// for example e of the open trainer batch (e < 0: outside one), and
// with no input gradient when wantIn is false. Conv2D and
// FullyConnected implement it.
type gradLayer interface {
	backward(gradOut *tensor.Tensor, e int, wantIn bool) *tensor.Tensor
}

// backward is Backward for example e of the open trainer batch, or
// outside one for e < 0.
func (n *Network) backward(g *tensor.Tensor, e int) {
	first := n.firstParamLayer()
	for i := len(n.Layers) - 1; i >= first; i-- {
		var tm obs.Timing
		if n.bwdSpans != nil {
			tm = n.bwdSpans[i].Start()
		}
		if gl, ok := n.Layers[i].(gradLayer); ok {
			g = gl.backward(g, e, i > first)
		} else {
			g = n.Layers[i].Backward(g)
		}
		tm.Stop()
	}
	// The layers below have no gradient to propagate. Their spans
	// still count the pass, so a record's span counts do not depend
	// on where the pass stops.
	for i := first - 1; i >= 0 && n.bwdSpans != nil; i-- {
		n.bwdSpans[i].Start().Stop()
	}
}

// firstParamLayer returns the index of the first layer that holds
// params, or len(n.Layers) when none does.
func (n *Network) firstParamLayer() int {
	for i, l := range n.Layers {
		if _, ok := l.(gradLayer); ok || len(l.Params()) > 0 {
			return i
		}
	}
	return len(n.Layers)
}

// beginBatch opens a trainer batch of k examples in every FC layer
// and packs its W for the batch's forwards; the net's ShareClone
// replicas record into the same batch and read the same pack.
func (n *Network) beginBatch(k int) {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok {
			fc.beginBatch(k)
			fc.pack()
		}
	}
}

// flushBatch adds the open batch's FC weight and bias gradients into
// G and closes the batch, its pack with it: the SGD step that follows
// changes W.
func (n *Network) flushBatch() {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok {
			fc.flushBatch()
			fc.batch.packed = false
		}
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

// Accuracy evaluates classification accuracy over a labelled set. W
// is fixed for the whole pass, so each trainable FC layer packs it once
// at the start and runs every forward on the pack; a frozen layer's
// pack is current already. A net built only from row layers classifies
// groups of accuracyRows inputs as K rows, each row's logits those of
// Predict's forward.
func (n *Network) Accuracy(inputs []*tensor.Tensor, labels []int) float64 {
	n.packTrainableFC(true)
	defer n.packTrainableFC(false)
	if !n.rowNet() {
		return accuracy(func(i int) int { return n.Predict(inputs[i]) }, inputs, labels)
	}
	var logits []float32
	var classes int
	return accuracy(func(i int) int {
		if i%accuracyRows == 0 {
			x := n.forwardRows(inputs[i:min(i+accuracyRows, len(inputs))], false)
			logits, classes = x.Data, x.Len()/x.Shape[0]
		}
		r := i % accuracyRows
		return argmax(logits[r*classes : (r+1)*classes])
	}, inputs, labels)
}

// accuracyRows is the group size of a row net's Accuracy pass: the
// trainer's default batch, so the pass grows no row buffer past the
// size training gives it. At 64 rows, serve set-up's peak RSS rose
// about 9%.
const accuracyRows = 16

// packTrainableFC packs the W of every FC layer that can still train
// (on), or marks those packs stale; a frozen layer's pack is always
// current, and is neither rewritten nor dropped.
func (n *Network) packTrainableFC(on bool) {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok && !fc.weight.frozen {
			if on {
				fc.pack()
			} else {
				fc.batch.packed = false
			}
		}
	}
}

// accuracy is the top-1 loop shared by the float and quantized
// networks: the fraction of inputs whose predicted class matches its
// label, 0 on an empty set. predict(i) classifies inputs[i]; it is
// called for each i in ascending order.
func accuracy(predict func(i int) int, inputs []*tensor.Tensor, labels []int) float64 {
	if len(inputs) != len(labels) {
		panic("nn: Accuracy input/label count mismatch")
	}
	if len(inputs) == 0 {
		return 0
	}
	correct := 0
	for i := range inputs {
		if predict(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs))
}
