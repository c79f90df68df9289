package nn

import (
	"learn2scale/internal/obs"
	"learn2scale/internal/tensor"
)

// Batched passes: a group of K inputs runs through the layer stack
// together. Row layers (fully-connected, ReLU, Flatten) take the whole
// group in one call — frozen and trained FC layers through the
// output-lane kernel, whose row blocks share each weight load — and
// every other layer runs its own per-sample Forward on each row, so
// conv nets batch unchanged. Each row's arithmetic is exactly the
// single-input Forward's, so batched logits are bit-identical to K
// sequential forward passes. A net built only from row layers also
// trains a mini-batch this way: one forward and one backward per
// layer (Trainer.batchRows).

// rowLayer is a layer that runs a group of K examples as the rows of
// one [K, sample...] tensor, each row's arithmetic exactly the
// single-example pass's. backwardRows takes the K output-gradient rows
// of a forwardRows(train) call and returns the K input-gradient rows,
// or nil when wantIn is false; an FC layer records the rows in its
// open trainer batch.
type rowLayer interface {
	forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor
	backwardRows(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor
}

// rowNet reports whether every layer of the net is a row layer, so a
// trainer batch can run as K rows.
func (n *Network) rowNet() bool {
	for _, l := range n.Layers {
		if _, ok := l.(rowLayer); !ok {
			return false
		}
	}
	return len(n.Layers) > 0
}

// batchPass carries one batched pass through a layer stack. Between
// layers the group's activations are the rows of one [K, sample...]
// tensor. A per-sample layer's output is overwritten by its next call,
// so each row's output is copied into a staging tensor as it comes;
// the two staging tensors alternate, so a layer never writes the rows
// it is reading. Until the first layer runs, the inputs are read in
// place.
type batchPass struct {
	rows  *tensor.Tensor   // current activations; nil before the first layer
	stage [2]tensor.Tensor // staging rows for per-sample layers
	view  tensor.Tensor    // one row, as handed to a per-sample layer
}

// sample returns row i of the current activations.
func (p *batchPass) sample(ins []*tensor.Tensor, i int) *tensor.Tensor {
	if p.rows == nil {
		return ins[i]
	}
	n := len(p.rows.Data) / p.rows.Shape[0]
	p.view.Shape = p.rows.Shape[1:]
	p.view.Data = p.rows.Data[i*n : (i+1)*n]
	return &p.view
}

// packed returns the current activations as one row tensor, gathering
// the inputs on first use.
func (p *batchPass) packed(ins []*tensor.Tensor) *tensor.Tensor {
	if p.rows == nil {
		dst := p.free()
		setRows(dst, len(ins), ins[0].Shape)
		n := ins[0].Len()
		for i, in := range ins {
			if in.Len() != n {
				panic("nn: batched inputs differ in length")
			}
			copy(dst.Data[i*n:(i+1)*n], in.Data)
		}
		p.rows = dst
	}
	return p.rows
}

// free returns the staging tensor whose storage the current rows do
// not use; the rows may be a view of a staging tensor (Flatten's).
func (p *batchPass) free() *tensor.Tensor {
	if p.rows != nil && len(p.rows.Data) > 0 && len(p.stage[0].Data) > 0 && &p.rows.Data[0] == &p.stage[0].Data[0] {
		return &p.stage[1]
	}
	return &p.stage[0]
}

// put stores a per-sample layer's output for row i of k; row 0 shapes
// the staging rows.
func (p *batchPass) put(k, i int, out *tensor.Tensor) {
	dst := p.free()
	if i == 0 {
		setRows(dst, k, out.Shape)
	}
	n := out.Len()
	copy(dst.Data[i*n:(i+1)*n], out.Data)
}

// advance makes the rows put by the last per-sample layer current.
func (p *batchPass) advance() { p.rows = p.free() }

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

// ForwardBatch runs inference on a group of inputs and returns their
// logits as the rows of one [len(ins), classes] tensor, row i
// bit-identical to Forward(ins[i], false). Row layers run the group in
// one call; every other layer runs its per-sample Forward on each row.
// With spans attached,
// each layer's step over the whole group is one span hit. The returned
// tensor is owned by the network and overwritten by the next call.
func (n *Network) ForwardBatch(ins []*tensor.Tensor) *tensor.Tensor {
	n.batch.rows = nil
	for i, l := range n.Layers {
		if n.fwdSpans == nil {
			n.batchStep(l, ins)
			continue
		}
		tm := n.fwdSpans[i].Start()
		n.batchStep(l, ins)
		tm.Stop()
	}
	return n.batch.packed(ins)
}

func (n *Network) batchStep(l Layer, ins []*tensor.Tensor) {
	p := &n.batch
	if rl, ok := l.(rowLayer); ok {
		p.rows = rl.forwardRows(p.packed(ins), false)
		return
	}
	for i := range ins {
		p.put(len(ins), i, l.Forward(p.sample(ins, i), false))
	}
	p.advance()
}

// forwardRows is the forward of a row net over the group ins, for
// training or, with train false, for Accuracy: the inputs gathered
// into one [K, sample...] tensor and one forwardRows call per layer.
// Each layer's span takes K hits, as K per-example forwards would give
// it, so a flight record's span counts do not depend on the path.
func (n *Network) forwardRows(ins []*tensor.Tensor, train bool) *tensor.Tensor {
	n.batch.rows = nil
	x := n.batch.packed(ins)
	k := int64(len(ins))
	for i, l := range n.Layers {
		var tm obs.Timing
		if n.fwdSpans != nil {
			tm = n.fwdSpans[i].Start()
		}
		x = l.(rowLayer).forwardRows(x, train)
		tm.StopN(k)
	}
	return x
}

// backwardRows is backward for the K rows of g, the loss gradients of
// the last forwardRows: one backwardRows call per layer down to the
// first that holds params, which computes no input gradient. Each
// layer's span takes K hits, those below the stop included.
func (n *Network) backwardRows(g *tensor.Tensor) {
	first := n.firstParamLayer()
	k := int64(g.Shape[0])
	for i := len(n.Layers) - 1; i >= first; i-- {
		var tm obs.Timing
		if n.bwdSpans != nil {
			tm = n.bwdSpans[i].Start()
		}
		g = n.Layers[i].(rowLayer).backwardRows(g, i > first)
		tm.StopN(k)
	}
	for i := first - 1; i >= 0 && n.bwdSpans != nil; i-- {
		n.bwdSpans[i].Start().StopN(k)
	}
}

// ForwardBatch runs quantized inference on a group of inputs and
// returns their logits as the rows of one [len(ins), classes] tensor,
// row i bit-identical to Forward(ins[i]). Quantized FC layers run the
// group through the int16 output-lane kernel; every other layer runs
// per sample. The returned tensor is owned by the network and
// overwritten by the next call.
func (qn *QuantNetwork) ForwardBatch(ins []*tensor.Tensor) *tensor.Tensor {
	p := &qn.batch
	p.rows = nil
	for _, l := range qn.layers {
		if fc, ok := l.(*quantFC); ok {
			p.rows = fc.ForwardBatch(p.packed(ins))
			continue
		}
		for i := range ins {
			p.put(len(ins), i, l.Forward(p.sample(ins, i)))
		}
		p.advance()
	}
	return p.packed(ins)
}
