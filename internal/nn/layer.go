// Package nn is a from-scratch neural-network training and inference
// stack: convolutional, pooling and fully-connected layers with exact
// backpropagation, an SGD-with-momentum trainer, softmax cross-entropy
// loss, a pluggable regularizer hook (used by internal/sparsity for the
// paper's group-Lasso training), and a 16-bit fixed-point inference
// path matching the Diannao-class accelerator cores modelled in
// internal/nna.
//
// Every layer runs a group of K examples as the rows of one [K, ...]
// tensor, each row's arithmetic that of the lone example, and splits
// the group over host workers inside the layer: by sample in a
// convolution (by sample and output panel or quad when the group is
// small), by channel across all K samples in pooling and
// normalization, by element in ReLU, by output panel in a
// fully-connected layer. A trainer batch, an Accuracy group and a
// ForwardBatch are each one forward per layer; a trainer batch is also
// one backward per layer. A layer's Forward and Backward, and the
// network's, run one example as a group of one, so there is a single
// implementation of every layer.
//
// A layer with weights adds the gradients of a group's examples into
// G in example order: a convolution takes each example's weight
// gradient with one GEMM and adds it, example after example, inside
// each parallel chunk of output channels; a fully-connected layer adds
// the whole group with one GEMM whose inner dimension runs over the
// examples in order. Either way every element of G gets the adds, in
// the order, that example-by-example accumulation gives it, so a batch
// trains to the same bits at any K and any worker count.
//
// An FC forward runs the output-lane kernel on W packed into panels
// wherever a run of forwards shares one version of W: a trainer batch,
// an Accuracy pass, and a frozen net. The pack is made at the start of
// the run, so it cannot be stale, and no weight version is kept. An
// isolated forward of a trainable net runs the row-dot kernel on W.
// Both kernels give every output the same add sequence.
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

// Layer is one stage of a feed-forward network.
//
// forwardRows consumes a group of K examples as the rows of one
// [K, sample...] tensor and returns the K output rows; when train is
// true the layer retains whatever internal state backwardRows needs.
// backwardRows consumes the K rows of dLoss/dOutput of the last
// forwardRows(train), adds the K examples' parameter gradients into
// Params()[i].Grad() in example order, and returns the K rows of
// dLoss/dInput, or nil when wantIn is false and the layer holds
// params. Forward and Backward are the same pass over a single
// example with no batch dimension (oneRow). The returned tensors are
// owned by the layer and overwritten by its next call.
type Layer interface {
	Name() string
	Forward(in *tensor.Tensor, train bool) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in []int) []int

	forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor
	backwardRows(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor
}

// oneRow holds the headers through which a layer's Forward and
// Backward run one example as a group of one: the operand with a
// leading dimension of 1, and the result without it. Both share their
// data with the tensors they view, so a lone example is copied
// nowhere.
type oneRow struct{ in, out, gradOut, gradIn tensor.Tensor }

func (v *oneRow) forward(l Layer, in *tensor.Tensor, train bool) *tensor.Tensor {
	return dropRow(&v.out, l.forwardRows(addRow(&v.in, in), train))
}

func (v *oneRow) backward(l Layer, gradOut *tensor.Tensor) *tensor.Tensor {
	return dropRow(&v.gradIn, l.backwardRows(addRow(&v.gradOut, gradOut), true))
}

// addRow points v at t's data as a group of one row.
func addRow(v, t *tensor.Tensor) *tensor.Tensor {
	v.Shape = append(append(v.Shape[:0], 1), t.Shape...)
	v.Data = t.Data
	return v
}

// dropRow points v at the data of r, a group of one row, without its
// row dimension.
func dropRow(v, r *tensor.Tensor) *tensor.Tensor {
	v.Shape = append(v.Shape[:0], r.Shape[1:]...)
	v.Data = r.Data
	return v
}

// setRows shapes t as k rows of the given per-sample shape, reusing its
// storage: the data grows only past its capacity, so a steady mix of
// group sizes allocates nothing.
func setRows(t *tensor.Tensor, k int, sample []int) {
	n := k
	for _, d := range sample {
		n *= d
	}
	t.Shape = append(append(t.Shape[:0], k), sample...)
	t.Data = grow(t.Data, n)
}

// grow returns s resliced to length n, reallocated only when n exceeds
// its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rowSpan returns the first row's part of the index range [i, hi) of
// a group whose rows hold n indices each: the row e that index i falls
// in, and the indices [a, b) of row e, counted from the row's start,
// that the range covers. A parallel body over a K-row index space
// walks its chunk row by row with it.
func rowSpan(i, hi, n int) (e, a, b int) {
	e = i / n
	return e, i - e*n, min(hi-e*n, n)
}

// checkRows panics unless x is a group of rows of the per-sample
// shape, and returns the row count.
func checkRows(layer, what string, x *tensor.Tensor, sample []int) int {
	if len(x.Shape) == 0 {
		panic(fmt.Sprintf("nn: %s: %s has no row dimension", layer, what))
	}
	mustShape(layer, what, x.Shape[1:], sample)
	return x.Shape[0]
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
