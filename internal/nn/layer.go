// Package nn is a from-scratch neural-network training and inference
// stack: convolutional, pooling and fully-connected layers with exact
// backpropagation, an SGD-with-momentum trainer, softmax cross-entropy
// loss, a pluggable regularizer hook (used by internal/sparsity for the
// paper's group-Lasso training), and a 16-bit fixed-point inference
// path matching the Diannao-class accelerator cores modelled in
// internal/nna.
//
// The stack processes one example at a time and accumulates gradients
// over a mini-batch. That trades throughput for simplicity; the
// networks in this reproduction are intentionally small enough that
// this is not a bottleneck.
package nn

import (
	"fmt"

	"learn2scale/internal/tensor"
)

// Param is a trainable parameter tensor together with its gradient and
// momentum buffers.
type Param struct {
	Name  string
	W     *tensor.Tensor // value
	G     *tensor.Tensor // gradient accumulator (per batch)
	V     *tensor.Tensor // momentum velocity
	Decay bool           // subject to weight decay / structured regularization
}

func newParam(name string, shape ...int) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(shape...),
		G:    tensor.New(shape...),
		V:    tensor.New(shape...),
	}
}

// shareClone returns a Param aliasing the value and momentum tensors
// of p but owning a fresh, zeroed gradient accumulator. Replica
// networks built from such params can run Forward/Backward
// concurrently with each other — they only read W — while each
// accumulates into its private G. The replica of a frozen Param is
// frozen too: it gets no buffers Freeze released.
func (p *Param) shareClone() *Param {
	c := &Param{Name: p.Name, W: p.W, V: p.V, Decay: p.Decay}
	if !p.frozen() {
		c.G = tensor.New(p.G.Shape...)
	}
	return c
}

// frozen reports whether Network.Freeze released p's gradient and
// momentum buffers.
func (p *Param) frozen() bool { return p.G == nil }

// mustTrainable panics, naming the layer, when Network.Freeze has
// released the gradient buffers a backward pass would accumulate into.
func mustTrainable(layer string, p *Param) {
	if p.frozen() {
		panic("nn: " + layer + ": Backward on a frozen layer (Network.Freeze released its gradients)")
	}
}

// ShareCloner is implemented by layers that can produce a replica for
// data-parallel gradient evaluation: the replica shares the trainable
// parameter values (and momentum) with the original but owns fresh
// gradient accumulators and private forward/backward scratch, so
// Forward(train)+Backward may run concurrently across replicas as long
// as no one updates the shared weights meanwhile. Layers with
// inherently sequential state (Dropout's RNG) do not implement it,
// which makes their networks fall back to serial batch evaluation.
type ShareCloner interface {
	Layer
	ShareClone() Layer
}

// Layer is one stage of a feed-forward network.
//
// Forward consumes a single example (no batch dimension) and returns
// the layer output; when train is true the layer retains whatever
// internal state Backward needs. Backward consumes dLoss/dOutput,
// accumulates parameter gradients into Params()[i].G, and returns
// dLoss/dInput.
type Layer interface {
	Name() string
	Forward(in *tensor.Tensor, train bool) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in []int) []int
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustShape(layer, what string, got, want []int) {
	if !shapeEq(got, want) {
		panic(fmt.Sprintf("nn: %s: %s shape %v, want %v", layer, what, got, want))
	}
}
