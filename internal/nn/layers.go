package nn

import (
	"fmt"
	"math/rand"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// reluGrain is the element count of one parallel ReLU chunk: large
// enough that the small activations of an MLP stay one chunk, which
// ForChunks runs inline on the caller.
const reluGrain = 16384

// poolChunkOutputs is the output count a parallel pooling chunk aims
// for; chunks hold whole channels.
const poolChunkOutputs = 4096

// poolGrain returns the channels per parallel chunk of a pooling
// layer with the given geometry.
func poolGrain(g tensor.ConvGeom) int {
	return max(1, poolChunkOutputs/(g.OutH*g.OutW))
}

// ReLU applies max(0, x) elementwise: x where x > 0, else +0 (NaN and
// −0 included), branch-free (tensor.ReLU) and split over workers in
// chunks of reluGrain elements across all K rows of a group.
type ReLU struct {
	name   string
	lastIn *tensor.Tensor
	// out and gradIn take the shape of each call's operand, reusing
	// their storage, so groups of different sizes alternate without
	// reallocating.
	out    tensor.Tensor
	gradIn tensor.Tensor
	one    oneRow

	// operands of the current pass, read by the prebuilt bodies
	curIn, curOut, curGo []float32
	fnFwd, fnBwd         func(lo, hi int)
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU {
	l := &ReLU{name: name}
	l.fnFwd = func(lo, hi int) { tensor.ReLU(l.curOut[lo:hi], l.curIn[lo:hi]) }
	l.fnBwd = func(lo, hi int) { tensor.ReLUGrad(l.curOut[lo:hi], l.curGo[lo:hi], l.curIn[lo:hi]) }
	return l
}

// clone returns a layer of the same configuration with buffers of its
// own, for a quantized twin's float fallback.
func (l *ReLU) clone() Layer { return NewReLU(l.name) }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

func (l *ReLU) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.lastIn = x
	}
	setRows(&l.out, x.Shape[0], x.Shape[1:])
	l.curIn, l.curOut = x.Data, l.out.Data
	parallel.ForChunks(len(x.Data), reluGrain, l.fnFwd)
	return &l.out
}

func (l *ReLU) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	setRows(&l.gradIn, gradOut.Shape[0], gradOut.Shape[1:])
	l.curIn, l.curOut, l.curGo = l.lastIn.Data, l.gradIn.Data, gradOut.Data
	parallel.ForChunks(len(l.curIn), reluGrain, l.fnBwd)
	return &l.gradIn
}

// MaxPool2D is channelwise max pooling over CHW inputs. A group of K
// samples pools as K·C channels, split over workers by whole channels
// (tensor.MaxPoolChannels forward, the argmax scatter backward). The
// argmax record is allocated on the first Forward(train) and the input
// gradient on the first backward pass, so inference never holds them.
type MaxPool2D struct {
	name     string
	geom     tensor.ConvGeom
	inShape  []int
	outShape []int
	grain    int // channels per parallel chunk

	out     tensor.Tensor
	gradIn  tensor.Tensor
	arg     []int32
	lastArg []int32 // the argmax of the last Forward(train)
	one     oneRow

	// operands of the current pass, read by the prebuilt bodies: kg is
	// the pooling geometry over the pass's K·C channels
	kg           tensor.ConvGeom
	curIn, curGo []float32
	curArg       []int32
	fnFwd, fnBwd func(lo, hi int)
}

// NewMaxPool2D creates a pooling layer with a k×k window.
func NewMaxPool2D(name string, inC, inH, inW, k, stride int) *MaxPool2D {
	g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride}.Infer()
	l := &MaxPool2D{name: name, geom: g, grain: poolGrain(g)}
	l.inShape = []int{g.InC, g.InH, g.InW}
	l.outShape = []int{g.InC, g.OutH, g.OutW}
	l.fnFwd = func(lo, hi int) {
		tensor.MaxPoolChannels(l.out.Data, l.curArg, l.curIn, l.kg, lo, hi)
	}
	// Every window of channel c lies in channel c, so each chunk
	// scatters into its own channels of gradIn, in the serial order.
	l.fnBwd = func(lo, hi int) {
		g := l.geom
		in, out := g.InH*g.InW, g.OutH*g.OutW
		gi := l.gradIn.Data
		clear(gi[lo*in : hi*in])
		for oi := lo * out; oi < hi*out; oi++ {
			if ii := l.lastArg[oi]; ii >= 0 {
				gi[ii] += l.curGo[oi]
			}
		}
	}
	return l
}

// clone returns a layer of the same configuration with buffers of its
// own, for a quantized twin's float fallback.
func (l *MaxPool2D) clone() Layer {
	return NewMaxPool2D(l.name, l.geom.InC, l.geom.InH, l.geom.InW, l.geom.KH, l.geom.Stride)
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// Geom returns the pooling geometry.
func (l *MaxPool2D) Geom() tensor.ConvGeom { return l.geom }

// Forward implements Layer.
func (l *MaxPool2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

func (l *MaxPool2D) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := checkRows(l.name, "input", x, l.inShape)
	setRows(&l.out, k, l.outShape)
	l.curArg = nil
	if train {
		l.arg = grow(l.arg, len(l.out.Data))
		l.curArg, l.lastArg = l.arg, l.arg
	}
	l.kg = l.geom
	l.kg.InC *= k
	l.curIn = x.Data
	parallel.ForChunks(l.kg.InC, l.grain, l.fnFwd)
	return &l.out
}

func (l *MaxPool2D) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	if l.lastArg == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	k := checkRows(l.name, "gradOut", gradOut, l.outShape)
	setRows(&l.gradIn, k, l.inShape)
	l.curGo = gradOut.Data
	parallel.ForChunks(k*l.geom.InC, l.grain, l.fnBwd)
	return &l.gradIn
}

// AvgPool2D is channelwise average pooling over CHW inputs (Caffe's
// cifar10-quick uses it for its later pooling stages). A group of K
// samples pools as K·C channels, split over workers by whole channels
// in both directions.
type AvgPool2D struct {
	name     string
	geom     tensor.ConvGeom
	inShape  []int
	outShape []int
	grain    int // channels per parallel chunk

	out    tensor.Tensor
	gradIn tensor.Tensor
	one    oneRow

	// operands of the current pass, read by the prebuilt bodies
	curIn, curGo []float32
	fnFwd, fnBwd func(lo, hi int)
}

// NewAvgPool2D creates an average-pooling layer with a k×k window.
func NewAvgPool2D(name string, inC, inH, inW, k, stride int) *AvgPool2D {
	g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride}.Infer()
	l := &AvgPool2D{name: name, geom: g, grain: poolGrain(g)}
	l.inShape = []int{g.InC, g.InH, g.InW}
	l.outShape = []int{g.InC, g.OutH, g.OutW}
	l.fnFwd = l.forwardChannels
	l.fnBwd = l.backwardChannels
	return l
}

// clone returns a layer of the same configuration with buffers of its
// own, for a quantized twin's float fallback.
func (l *AvgPool2D) clone() Layer {
	return NewAvgPool2D(l.name, l.geom.InC, l.geom.InH, l.geom.InW, l.geom.KH, l.geom.Stride)
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *AvgPool2D) Params() []*Param { return nil }

// Geom returns the pooling geometry.
func (l *AvgPool2D) Geom() tensor.ConvGeom { return l.geom }

// Forward implements Layer.
func (l *AvgPool2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

func (l *AvgPool2D) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := checkRows(l.name, "input", x, l.inShape)
	setRows(&l.out, k, l.outShape)
	l.curIn = x.Data
	parallel.ForChunks(k*l.geom.InC, l.grain, l.fnFwd)
	return &l.out
}

// forwardChannels averages the windows of channels [lo, hi) of the
// group's K·C.
func (l *AvgPool2D) forwardChannels(lo, hi int) {
	out, in := l.out.Data, l.curIn
	g := l.geom
	for c := lo; c < hi; c++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				sum := float32(0)
				n := 0
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.Stride + kh
					if ih >= g.InH {
						continue
					}
					for kw := 0; kw < g.KW; kw++ {
						iw := ow*g.Stride + kw
						if iw >= g.InW {
							continue
						}
						sum += in[(c*g.InH+ih)*g.InW+iw]
						n++
					}
				}
				out[(c*g.OutH+oh)*g.OutW+ow] = sum / float32(n)
			}
		}
	}
}

// backwardRows spreads the gradient of each output uniformly over its
// pooling window.
func (l *AvgPool2D) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	k := checkRows(l.name, "gradOut", gradOut, l.outShape)
	setRows(&l.gradIn, k, l.inShape)
	l.curGo = gradOut.Data
	parallel.ForChunks(k*l.geom.InC, l.grain, l.fnBwd)
	return &l.gradIn
}

// backwardChannels spreads the output gradients of channels [lo, hi)
// of the group's K·C over their windows; every window of channel c
// lies in channel c.
func (l *AvgPool2D) backwardChannels(lo, hi int) {
	g := l.geom
	gi := l.gradIn.Data
	clear(gi[lo*g.InH*g.InW : hi*g.InH*g.InW])
	for c := lo; c < hi; c++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				n := 0
				for kh := 0; kh < g.KH; kh++ {
					if oh*g.Stride+kh < g.InH {
						for kw := 0; kw < g.KW; kw++ {
							if ow*g.Stride+kw < g.InW {
								n++
							}
						}
					}
				}
				share := l.curGo[(c*g.OutH+oh)*g.OutW+ow] / float32(n)
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.Stride + kh
					if ih >= g.InH {
						continue
					}
					for kw := 0; kw < g.KW; kw++ {
						iw := ow*g.Stride + kw
						if iw >= g.InW {
							continue
						}
						gi[(c*g.InH+ih)*g.InW+iw] += share
					}
				}
			}
		}
	}
}

// Flatten reshapes a group [K, sample...] to [K, n]. Both directions
// are views sharing the operand's data through persistent headers, so
// the layer performs no per-call allocation.
type Flatten struct {
	name      string
	lastShape []int
	flatShape [2]int
	fwdView   tensor.Tensor
	bwdView   tensor.Tensor
	one       oneRow
}

// NewFlatten creates a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// clone returns a layer of the same configuration with buffers of its
// own, for a quantized twin's float fallback.
func (l *Flatten) clone() Layer { return NewFlatten(l.name) }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

func (l *Flatten) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.lastShape = x.Shape
	}
	k := x.Shape[0]
	l.flatShape = [2]int{k, x.Len() / k}
	l.fwdView.Shape = l.flatShape[:]
	l.fwdView.Data = x.Data
	return &l.fwdView
}

func (l *Flatten) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	l.bwdView.Shape = l.lastShape
	l.bwdView.Data = gradOut.Data
	return &l.bwdView
}

// Dropout zeroes activations with probability p during training and
// scales the survivors by 1/(1-p) (inverted dropout), so inference is a
// pass-through. A training group draws its mask in row order, each row
// in element order: the draws K one-row passes make in turn.
type Dropout struct {
	name string
	p    float64
	rng  *rand.Rand

	out    tensor.Tensor
	gradIn tensor.Tensor
	mask   []bool
	live   bool // mask holds the most recent training pass
	one    oneRow
}

// NewDropout creates a dropout layer with drop probability p in [0, 1).
func NewDropout(name string, p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: %s: dropout probability %v out of [0,1)", name, p))
	}
	return &Dropout{name: name, p: p, rng: rng}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Dropout) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

// forwardRows returns x itself unless training; a training pass's
// output is owned by the layer and overwritten by the next one.
func (l *Dropout) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.p == 0 {
		return x
	}
	scale := float32(1 / (1 - l.p))
	setRows(&l.out, x.Shape[0], x.Shape[1:])
	l.mask = grow(l.mask, len(x.Data))
	l.live = true
	out := l.out.Data
	for i, v := range x.Data {
		if l.rng.Float64() >= l.p {
			l.mask[i] = true
			out[i] = v * scale
		} else {
			l.mask[i] = false
			out[i] = 0
		}
	}
	return &l.out
}

func (l *Dropout) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	if !l.live {
		return gradOut
	}
	scale := float32(1 / (1 - l.p))
	setRows(&l.gradIn, gradOut.Shape[0], gradOut.Shape[1:])
	gi := l.gradIn.Data
	for i, keep := range l.mask {
		if keep {
			gi[i] = gradOut.Data[i] * scale
		} else {
			gi[i] = 0
		}
	}
	return &l.gradIn
}
