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

	// rows holds the gathered inputs of a ForwardBatch, an Accuracy
	// group or a trainer batch.
	rows tensor.Tensor
	// lossRows holds the K rows of a trainer batch's loss gradients;
	// rowView is one row of the logits and one of lossRows.
	lossRows tensor.Tensor
	rowView  [2]tensor.Tensor
	one      oneRow
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

// Freeze makes the network inference-only, for serving. Each
// fully-connected layer packs its weights into the output-lane panels
// of tensor.PackFC and from then on runs tensor.FCForward in Forward
// and ForwardBatch: a lone input fills every vector lane, and the
// outputs stay bit-identical to the MatVecAcc forward, at any group
// size. The pack reuses the buffer training packed into, and is always
// made afresh, since an AfterStep projector may have changed W after
// the last batch's pack. Every parameter is marked frozen and drops
// any gradient and momentum a past training run left behind, and every
// FC layer its backward operands, so the net holds its weights and one
// packed copy of its FC weights.
//
// A frozen net cannot train: Backward and an SGD step panic, naming the
// parameter, and Load returns an error. This holds whether or not the
// net ever trained. Its weights must not change after Freeze, or the
// packed copies go stale. Freeze is idempotent.
func (n *Network) Freeze() {
	for _, l := range n.Layers {
		if fc, ok := l.(*FullyConnected); ok {
			fc.xp, fc.gp = nil, nil
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

// Forward runs one example through the network as a group of one row
// and returns its class logits. The returned tensor is owned by the
// network and overwritten by the next call.
func (n *Network) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return dropRow(&n.one.out, n.forwardRows(addRow(&n.one.in, in), train, 1))
}

// Backward propagates dLoss/dLogits of the last Forward(train) through
// the network, accumulating parameter gradients. No one reads the
// input gradient of the net, so the pass stops at the first layer that
// holds params, which adds its param gradients and computes no input
// gradient.
func (n *Network) Backward(gradLogits *tensor.Tensor) {
	n.backwardRows(addRow(&n.one.gradOut, gradLogits))
}

// firstParamLayer returns the index of the first layer that holds
// params, or len(n.Layers) when none does.
func (n *Network) firstParamLayer() int {
	for i, l := range n.Layers {
		if len(l.Params()) > 0 {
			return i
		}
	}
	return len(n.Layers)
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

// Accuracy evaluates classification accuracy over a labelled set,
// classifying groups of accuracyRows inputs as K rows, each row's
// logits those of Predict's forward. W is fixed for the whole pass, so
// each trainable FC layer packs it once at the start and runs every
// forward on the pack; a frozen layer's pack is current already.
func (n *Network) Accuracy(inputs []*tensor.Tensor, labels []int) float64 {
	n.packTrainableFC(true)
	defer n.packTrainableFC(false)
	return accuracy(func(ins []*tensor.Tensor) *tensor.Tensor {
		return n.forwardRows(gather(&n.rows, ins), false, int64(len(ins)))
	}, inputs, labels)
}

// accuracyRows is the group size of an Accuracy pass: the trainer's
// default batch, so the pass grows no row buffer past the size
// training gives it. At 64 rows, serve set-up's peak RSS rose about
// 9%.
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
				fc.packed = false
			}
		}
	}
}

// accuracy is the top-1 loop shared by the float and quantized
// networks: the fraction of inputs whose predicted class matches its
// label, 0 on an empty set. forward returns the logits of a group of
// inputs as rows; it is called on groups of accuracyRows in input
// order.
func accuracy(forward func(ins []*tensor.Tensor) *tensor.Tensor, inputs []*tensor.Tensor, labels []int) float64 {
	if len(inputs) != len(labels) {
		panic("nn: Accuracy input/label count mismatch")
	}
	if len(inputs) == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < len(inputs); lo += accuracyRows {
		hi := min(lo+accuracyRows, len(inputs))
		logits := forward(inputs[lo:hi])
		c := len(logits.Data) / (hi - lo)
		for i := lo; i < hi; i++ {
			if argmax(logits.Data[(i-lo)*c:(i-lo+1)*c]) == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(inputs))
}
