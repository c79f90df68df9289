package nn

import (
	"fmt"
	"math/rand"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// fitBuf shapes t as shape, reusing its storage: the data grows only
// past its capacity, so a layer that runs one example, then a group of
// K, then one again allocates nothing once each size has run.
func fitBuf(t *tensor.Tensor, shape []int) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = grow(t.Data, n)
}

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
// chunks of reluGrain elements. Being elementwise, it is a row layer:
// a group of K rows runs as one call over all K·n elements.
type ReLU struct {
	name   string
	lastIn *tensor.Tensor
	// out and gradIn take the shape of each call's operand, reusing
	// their storage, so one example and a group of K alternate without
	// reallocating.
	out    tensor.Tensor
	gradIn tensor.Tensor

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

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *ReLU) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.lastIn = in
	}
	fitBuf(&l.out, in.Shape)
	l.curIn, l.curOut = in.Data, l.out.Data
	parallel.ForChunks(len(in.Data), reluGrain, l.fnFwd)
	return &l.out
}

// Backward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Backward call.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	fitBuf(&l.gradIn, gradOut.Shape)
	l.curIn, l.curOut, l.curGo = l.lastIn.Data, l.gradIn.Data, gradOut.Data
	parallel.ForChunks(len(l.curIn), reluGrain, l.fnBwd)
	return &l.gradIn
}

func (l *ReLU) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor { return l.Forward(x, train) }

func (l *ReLU) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	return l.Backward(gradOut)
}

// ShareClone implements ShareCloner.
func (l *ReLU) ShareClone() Layer { return NewReLU(l.name) }

// MaxPool2D is channelwise max pooling over CHW inputs, split over
// workers by whole channels (tensor.MaxPoolChannels forward, the
// argmax scatter backward). The argmax record is allocated on the
// first Forward(train) and the input gradient on the first Backward,
// so inference never holds them.
type MaxPool2D struct {
	name    string
	geom    tensor.ConvGeom
	inShape []int
	grain   int // channels per parallel chunk

	out     *tensor.Tensor
	gradIn  *tensor.Tensor
	arg     []int32
	lastArg []int32

	// operands of the current pass, read by the prebuilt bodies
	curIn, curGo []float32
	curArg       []int32
	fnFwd, fnBwd func(lo, hi int)
}

// NewMaxPool2D creates a pooling layer with a k×k window.
func NewMaxPool2D(name string, inC, inH, inW, k, stride int) *MaxPool2D {
	g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride}.Infer()
	l := &MaxPool2D{name: name, geom: g, grain: poolGrain(g)}
	l.inShape = []int{g.InC, g.InH, g.InW}
	l.out = tensor.New(g.InC, g.OutH, g.OutW)
	l.fnFwd = func(lo, hi int) {
		tensor.MaxPoolChannels(l.out.Data, l.curArg, l.curIn, l.geom, lo, hi)
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

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// Geom returns the pooling geometry.
func (l *MaxPool2D) Geom() tensor.ConvGeom { return l.geom }

// OutShape implements Layer.
func (l *MaxPool2D) OutShape(in []int) []int {
	return []int{l.geom.InC, l.geom.OutH, l.geom.OutW}
}

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *MaxPool2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	mustShape(l.name, "input", in.Shape, l.inShape)
	l.curArg = nil
	if train {
		if l.arg == nil {
			l.arg = make([]int32, l.out.Len())
		}
		l.curArg = l.arg
		l.lastArg = l.arg
	}
	l.curIn = in.Data
	parallel.ForChunks(l.geom.InC, l.grain, l.fnFwd)
	return l.out
}

// Backward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Backward call.
func (l *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastArg == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	if l.gradIn == nil {
		l.gradIn = tensor.New(l.inShape...)
	}
	l.curGo = gradOut.Data
	parallel.ForChunks(l.geom.InC, l.grain, l.fnBwd)
	return l.gradIn
}

// ShareClone implements ShareCloner.
func (l *MaxPool2D) ShareClone() Layer {
	return NewMaxPool2D(l.name, l.geom.InC, l.geom.InH, l.geom.InW, l.geom.KH, l.geom.Stride)
}

// AvgPool2D is channelwise average pooling over CHW inputs (Caffe's
// cifar10-quick uses it for its later pooling stages), split over
// workers by whole channels in both directions.
type AvgPool2D struct {
	name    string
	geom    tensor.ConvGeom
	inShape []int
	grain   int // channels per parallel chunk

	out    *tensor.Tensor
	gradIn *tensor.Tensor

	// operands of the current pass, read by the prebuilt bodies
	curIn, curGo []float32
	fnFwd, fnBwd func(lo, hi int)
}

// NewAvgPool2D creates an average-pooling layer with a k×k window.
func NewAvgPool2D(name string, inC, inH, inW, k, stride int) *AvgPool2D {
	g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride}.Infer()
	l := &AvgPool2D{name: name, geom: g, grain: poolGrain(g)}
	l.inShape = []int{g.InC, g.InH, g.InW}
	l.out = tensor.New(g.InC, g.OutH, g.OutW)
	l.gradIn = tensor.New(g.InC, g.InH, g.InW)
	l.fnFwd = l.forwardChannels
	l.fnBwd = l.backwardChannels
	return l
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *AvgPool2D) Params() []*Param { return nil }

// Geom returns the pooling geometry.
func (l *AvgPool2D) Geom() tensor.ConvGeom { return l.geom }

// OutShape implements Layer.
func (l *AvgPool2D) OutShape(in []int) []int {
	return []int{l.geom.InC, l.geom.OutH, l.geom.OutW}
}

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *AvgPool2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	mustShape(l.name, "input", in.Shape, l.inShape)
	l.curIn = in.Data
	parallel.ForChunks(l.geom.InC, l.grain, l.fnFwd)
	return l.out
}

// forwardChannels averages the windows of channels [lo, hi).
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

// Backward implements Layer: the gradient of each output spreads
// uniformly over its pooling window. The returned tensor is owned by
// the layer and overwritten by the next Backward call.
func (l *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.curGo = gradOut.Data
	parallel.ForChunks(l.geom.InC, l.grain, l.fnBwd)
	return l.gradIn
}

// backwardChannels spreads the output gradients of channels [lo, hi)
// over their windows; every window of channel c lies in channel c.
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

// ShareClone implements ShareCloner (the layer is stateless between
// Forward and Backward except for geometry).
func (l *AvgPool2D) ShareClone() Layer {
	return NewAvgPool2D(l.name, l.geom.InC, l.geom.InH, l.geom.InW, l.geom.KH, l.geom.Stride)
}

// Flatten reshapes any input to a rank-1 tensor, and as a row layer a
// group [K, sample...] to [K, n]. Both directions are views sharing
// the operand's data through persistent headers, so the layer performs
// no per-call allocation.
type Flatten struct {
	name      string
	lastShape []int
	flatShape [2]int
	fwdView   tensor.Tensor
	bwdView   tensor.Tensor
}

// NewFlatten creates a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer. The returned view is owned by the layer
// and repointed by the next Forward call.
func (l *Flatten) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	l.flatShape[0] = in.Len()
	return l.view(in, train, l.flatShape[:1])
}

func (l *Flatten) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := x.Shape[0]
	l.flatShape = [2]int{k, x.Len() / k}
	return l.view(x, train, l.flatShape[:])
}

// view points the forward view at in's data with the given shape.
func (l *Flatten) view(in *tensor.Tensor, train bool, shape []int) *tensor.Tensor {
	if train {
		l.lastShape = in.Shape
	}
	l.fwdView.Shape = shape
	l.fwdView.Data = in.Data
	return &l.fwdView
}

// Backward implements Layer. The returned view is owned by the layer
// and repointed by the next Backward call.
func (l *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.bwdView.Shape = l.lastShape
	l.bwdView.Data = gradOut.Data
	return &l.bwdView
}

func (l *Flatten) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	return l.Backward(gradOut)
}

// ShareClone implements ShareCloner.
func (l *Flatten) ShareClone() Layer { return &Flatten{name: l.name} }

// Dropout intentionally does NOT implement ShareCloner: its RNG draws
// are a sequential stream, so replicating the layer would change which
// units drop for which example depending on scheduling. Networks
// containing Dropout train on the serial batch path instead.

// Dropout zeroes activations with probability p during training and
// scales the survivors by 1/(1-p) (inverted dropout), so inference is a
// pass-through.
type Dropout struct {
	name string
	p    float64
	rng  *rand.Rand

	out    tensor.Tensor
	gradIn tensor.Tensor
	mask   []bool
	live   bool // mask holds the most recent training pass
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

// OutShape implements Layer.
func (l *Dropout) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer. During training the returned tensor is
// owned by the layer and overwritten by the next Forward call.
func (l *Dropout) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.p == 0 {
		return in
	}
	scale := float32(1 / (1 - l.p))
	fitBuf(&l.out, in.Shape)
	if len(l.mask) != in.Len() {
		l.mask = make([]bool, in.Len())
	}
	l.live = true
	out := l.out.Data
	for i, v := range in.Data {
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

// Backward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Backward call.
func (l *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !l.live {
		return gradOut
	}
	scale := float32(1 / (1 - l.p))
	fitBuf(&l.gradIn, gradOut.Shape)
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
