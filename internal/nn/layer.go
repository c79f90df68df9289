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
//
// Training state exists only where training happens. A parameter's
// gradient and momentum, and the backward-only scratch of conv, pooling
// and fully-connected layers, are allocated when a net first trains
// (Trainer.Fit or Trainer.Step, or a layer's first Backward), so a net
// that only runs inference holds its weights and its forward buffers.
package nn

import (
	"fmt"

	"learn2scale/internal/tensor"
)

// Param is a trainable parameter tensor together with its training
// state. A net built for inference holds only W: the gradient G is
// allocated by Grad on first use (a layer's first Backward, or a
// regularizer's gradient), and the momentum V by the Trainer when
// training starts. Both stay nil on a net that never trains.
type Param struct {
	Name  string
	W     *tensor.Tensor // value
	G     *tensor.Tensor // gradient accumulator (per batch); nil until Grad
	V     *tensor.Tensor // momentum velocity; nil until a Trainer runs
	Decay bool           // subject to weight decay / structured regularization

	frozen bool // set by Network.Freeze: the param never trains again
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...)}
}

// Grad returns the gradient accumulator, allocating it zeroed on first
// use. It panics, naming the param, when Network.Freeze has made the
// param inference-only.
func (p *Param) Grad() *tensor.Tensor {
	if p.frozen {
		panic("nn: " + p.Name + ": training a frozen parameter (Network.Freeze made it inference-only)")
	}
	if p.G == nil {
		p.G = tensor.New(p.W.Shape...)
	}
	return p.G
}

// shareClone returns a Param aliasing the value tensor of p but owning
// a fresh, zeroed gradient accumulator. Replica networks built from
// such params can run Forward/Backward concurrently with each other —
// they only read W — while each accumulates into its private G. The
// momentum is not shared: only the Trainer's step on the original
// reads it. The replica of a frozen Param is frozen too and gets no G.
func (p *Param) shareClone() *Param {
	c := &Param{Name: p.Name, W: p.W, Decay: p.Decay, frozen: p.frozen}
	if !p.frozen {
		c.G = tensor.New(p.W.Shape...)
	}
	return c
}

// ShareCloner is implemented by layers that can produce a replica for
// data-parallel gradient evaluation: the replica shares the trainable
// parameter values with the original but owns fresh gradient
// accumulators and private forward/backward scratch, so
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
// accumulates parameter gradients into Params()[i].Grad(), and returns
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
