package nn

import "learn2scale/internal/tensor"

// Batched inference: a group of K inputs runs through the layer stack
// together. Fully-connected layers (float and int16) take the whole
// group in one call — frozen and quantized ones through the output-lane
// kernel, whose row blocks share each weight load — and every other
// layer runs its own per-sample Forward on each row, so conv nets batch
// unchanged. Each row's arithmetic is exactly the single-input
// Forward's, so batched logits are bit-identical to K sequential
// forward passes.

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

// free returns the staging tensor that does not hold the current rows.
func (p *batchPass) free() *tensor.Tensor {
	if p.rows == &p.stage[0] {
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
// bit-identical to Forward(ins[i], false). Fully-connected layers run
// the group in one call (FullyConnected.ForwardBatch); every other
// layer runs its per-sample Forward on each row. With spans attached,
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
	if fc, ok := l.(*FullyConnected); ok {
		p.rows = fc.ForwardBatch(p.packed(ins))
		return
	}
	for i := range ins {
		p.put(len(ins), i, l.Forward(p.sample(ins, i), false))
	}
	p.advance()
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
