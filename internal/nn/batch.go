package nn

import (
	"learn2scale/internal/obs"
	"learn2scale/internal/tensor"
)

// Row passes: a group of K inputs runs through the layer stack as the
// rows of one [K, sample...] tensor, one forwardRows call per layer,
// and a trainer batch back down it, one backwardRows call per layer.
// Each row's arithmetic is exactly the single input's, so batched
// logits are bit-identical to K sequential forward passes and a batch's
// gradients to K sequential backward passes.

// gather copies the inputs into the rows of dst, reusing its storage,
// and returns it.
func gather(dst *tensor.Tensor, ins []*tensor.Tensor) *tensor.Tensor {
	setRows(dst, len(ins), ins[0].Shape)
	n := ins[0].Len()
	for i, in := range ins {
		if in.Len() != n {
			panic("nn: batched inputs differ in length")
		}
		copy(dst.Data[i*n:(i+1)*n], in.Data)
	}
	return dst
}

// ForwardBatch runs inference on a group of inputs and returns their
// logits as the rows of one [len(ins), classes] tensor, row i
// bit-identical to Forward(ins[i], false). With spans attached, each
// layer's step over the whole group is one span hit. The returned
// tensor is owned by the network and overwritten by the next call.
func (n *Network) ForwardBatch(ins []*tensor.Tensor) *tensor.Tensor {
	return n.forwardRows(gather(&n.rows, ins), false, 1)
}

// forwardRows runs the group x through every layer, for training or,
// with train false, for inference. Each layer's span takes hits hits:
// a trainer batch and an Accuracy group count one per row, as K
// per-example forwards would, so a flight record's span counts do not
// depend on the group size.
func (n *Network) forwardRows(x *tensor.Tensor, train bool, hits int64) *tensor.Tensor {
	for i, l := range n.Layers {
		var tm obs.Timing
		if n.fwdSpans != nil {
			tm = n.fwdSpans[i].Start()
		}
		x = l.forwardRows(x, train)
		tm.StopN(hits)
	}
	return x
}

// backwardRows is the backward pass of the K rows of g, the loss
// gradients of the last forwardRows(train): one backwardRows call per
// layer down to the first that holds params, which computes no input
// gradient. Each layer's span takes K hits, those below the stop
// included, so span counts do not depend on where the pass stops.
func (n *Network) backwardRows(g *tensor.Tensor) {
	first := n.firstParamLayer()
	k := int64(g.Shape[0])
	for i := len(n.Layers) - 1; i >= first; i-- {
		var tm obs.Timing
		if n.bwdSpans != nil {
			tm = n.bwdSpans[i].Start()
		}
		g = n.Layers[i].backwardRows(g, i > first)
		tm.StopN(k)
	}
	for i := first - 1; i >= 0 && n.bwdSpans != nil; i-- {
		n.bwdSpans[i].Start().StopN(k)
	}
}
