package nn

import (
	"fmt"
	"math"
	"math/rand"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// Conv2D is a 2D convolution over CHW inputs with optional channel
// grouping (the paper's structure-level parallelization splits a layer
// into Groups independent channel groups, exactly like AlexNet's
// original two-GPU grouping).
//
// Weights are OIHW with I = InC/Groups: output channel oc in group g
// sees only the input channels of group g.
//
// The layer owns all of its forward/backward buffers and packed-GEMM
// scratch, so steady-state training steps perform no heap allocation;
// the tensors returned by Forward/Backward are reused on the next call
// and must be cloned by callers that retain them across steps. The
// backward-only buffers are allocated on the first Backward, so a layer
// that only runs inference never holds them.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	groups int

	weight *Param
	bias   *Param

	// static per-group geometry, precomputed once
	gg       tensor.ConvGeom // per-group geometry (channels divided)
	g1       tensor.ConvGeom // per-channel im2col geometry (InC = 1), backward only
	rows     int             // patch-matrix rows: InCg·KH·KW
	cols     int             // patch-matrix cols: OutH·OutW
	chanRows int             // im2col rows owned by one input channel
	chanSize int             // pixels per input channel
	inShape  []int           // expected input shape
	goShape  []int           // expected gradOut shape

	// persistent activations/gradients, reused every step
	out    *tensor.Tensor
	lastIn *tensor.Tensor

	// packed-GEMM operand scratch (see internal/tensor), reused per group
	wPackedA []float32 // forward A: W (OutCg×rows)
	bPacked  []float32 // forward B: the patch matrix (rows×cols), packed straight from the input

	// backward-only buffers, nil until the first Backward
	gradIn     *tensor.Tensor
	goPackedA  []float32 // dW A: dOut (OutCg×cols)
	colTPacked []float32 // dW B: colᵀ (cols×rows)
	wPackedAT  []float32 // dIn A: Wᵀ (rows×OutCg)
	goPackedB  []float32 // dIn B: dOut (OutCg×cols)
	gradW      []float32 // one-group weight-gradient scratch
	gradCol    []float32 // one group's patch matrix for dW, then its gradient for dIn

	// operands of the current group, set before each parallel dispatch
	// and read by the prebuilt bodies below
	curIn, curOut, curW, curGo, curGi, curGW, curGB []float32
	curBias                                         int

	// prebuilt parallel bodies: a closure built at the call site would
	// escape into the worker pool and allocate every step
	fnPackIn, fnPackW, fnFwd              func(lo, hi int)
	fnIm2Col, fnPackGoA, fnPackColT, fnDW func(lo, hi int)
	fnPackWT, fnPackGo, fnDIn, fnCol2Im   func(lo, hi int)
}

// NewConv2D creates a convolution layer. inC/outC must be divisible by
// groups.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad, groups int) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: %s: groups=%d does not divide channels %d/%d", name, groups, inC, outC))
	}
	g := tensor.ConvGeom{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
	}.Infer()
	l := &Conv2D{
		name:   name,
		geom:   g,
		groups: groups,
		weight: newParam(name+".weight", outC, inC/groups, k, k),
		bias:   newParam(name+".bias", outC),
	}
	l.weight.Decay = true
	l.initScratch()
	return l
}

// initScratch sizes the forward buffers and builds the reusable
// parallel bodies. Called from the constructor and from ShareClone so
// every replica owns private scratch.
func (l *Conv2D) initScratch() {
	g := l.geom
	gg := g
	gg.InC /= l.groups
	gg.OutC /= l.groups
	l.gg = gg
	l.g1 = gg
	l.g1.InC = 1
	l.rows = gg.InC * gg.KH * gg.KW
	l.cols = gg.OutH * gg.OutW
	l.chanRows = gg.KH * gg.KW
	l.chanSize = g.InH * g.InW
	l.inShape = []int{g.InC, g.InH, g.InW}
	l.goShape = []int{g.OutC, g.OutH, g.OutW}
	l.out = tensor.New(g.OutC, g.OutH, g.OutW)
	l.wPackedA = make([]float32, tensor.PackASize(gg.OutC, l.rows))
	l.bPacked = make([]float32, tensor.PackBSize(l.rows, l.cols))

	// The forward B operand: each column panel of the group's patch
	// matrix is gathered from the input straight into its packed slot,
	// and panels are disjoint in the packed destination.
	l.fnPackIn = func(lo, hi int) {
		tensor.Im2ColPacked(l.bPacked, l.curIn, l.gg, lo, hi)
	}
	// Backward rebuilds the patch matrix dW needs. Each input channel
	// owns a contiguous row band of it, so channels expand (and scatter
	// back) independently.
	l.fnIm2Col = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			tensor.Im2Col(l.gradCol[c*l.chanRows*l.cols:(c+1)*l.chanRows*l.cols], l.curIn[c*l.chanSize:(c+1)*l.chanSize], l.g1)
		}
	}
	l.fnCol2Im = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			// Col2Im scatter-accumulates, and gradIn is reused across
			// calls: the channel must start from zero every time.
			gi := l.curGi[c*l.chanSize : (c+1)*l.chanSize]
			clear(gi)
			tensor.Col2Im(gi, l.gradCol[c*l.chanRows*l.cols:(c+1)*l.chanRows*l.cols], l.g1)
		}
	}
	// Column panels are disjoint in the packed destination.
	l.fnPackColT = func(lo, hi int) {
		tensor.PackBTRange(l.colTPacked, l.gradCol, l.cols, l.rows, lo, hi)
	}
	l.fnPackGo = func(lo, hi int) {
		tensor.PackBRange(l.goPackedB, l.curGo, l.gg.OutC, l.cols, lo, hi)
	}
	// Row quads are disjoint in a packed A operand. Packing only
	// copies, so the split cannot change a byte.
	l.fnPackW = func(lo, hi int) {
		tensor.PackARange(l.wPackedA, l.curW, l.gg.OutC, l.rows, lo, hi)
	}
	l.fnPackGoA = func(lo, hi int) {
		tensor.PackARange(l.goPackedA, l.curGo, l.gg.OutC, l.cols, lo, hi)
	}
	l.fnPackWT = func(lo, hi int) {
		tensor.PackATRange(l.wPackedAT, l.curW, l.rows, l.gg.OutC, lo, hi)
	}
	// Output channels are independent GEMM rows; chunking on the quad
	// grain changes nothing about each row's accumulation order.
	l.fnFwd = func(lo, hi int) {
		tensor.MatMulPacked(l.curOut, l.wPackedA, l.bPacked, l.gg.OutC, l.rows, l.cols, lo, hi)
		for oc := lo; oc < hi; oc++ {
			b := l.bias.W.Data[l.curBias+oc]
			row := l.curOut[oc*l.cols : (oc+1)*l.cols]
			for i := range row {
				row[i] += b
			}
		}
	}
	// dW = dOut · colᵀ (accumulated into G) and db = row sums of dOut:
	// both are disjoint per output channel.
	l.fnDW = func(lo, hi int) {
		tensor.MatMulPacked(l.gradW, l.goPackedA, l.colTPacked, l.gg.OutC, l.cols, l.rows, lo, hi)
		d := l.curGW[lo*l.rows : hi*l.rows]
		for i, v := range l.gradW[lo*l.rows : hi*l.rows] {
			d[i] += v
		}
		for oc := lo; oc < hi; oc++ {
			s := float32(0)
			for _, v := range l.curGo[oc*l.cols : (oc+1)*l.cols] {
				s += v
			}
			l.curGB[l.curBias+oc] += s
		}
	}
	// dIn patch rows are disjoint; each keeps MatMulATB's exact
	// accumulation order.
	l.fnDIn = func(lo, hi int) {
		tensor.MatMulPacked(l.gradCol, l.wPackedAT, l.goPackedB, l.rows, l.gg.OutC, l.cols, lo, hi)
	}
}

// Init fills the weights with He-normal initialization.
func (l *Conv2D) Init(rng *rand.Rand) {
	fanIn := (l.geom.InC / l.groups) * l.geom.KH * l.geom.KW
	l.weight.W.RandN(rng, math.Sqrt(2.0/float64(fanIn)))
	l.bias.W.Zero()
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.weight, l.bias} }

// Geom returns the layer's convolution geometry.
func (l *Conv2D) Geom() tensor.ConvGeom { return l.geom }

// Groups returns the channel group count.
func (l *Conv2D) Groups() int { return l.groups }

// Weight exposes the weight parameter (used by the sparsity machinery).
func (l *Conv2D) Weight() *Param { return l.weight }

// OutShape implements Layer.
func (l *Conv2D) OutShape(in []int) []int {
	return []int{l.geom.OutC, l.geom.OutH, l.geom.OutW}
}

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *Conv2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	mustShape(l.name, "input", in.Shape, l.inShape)
	if train {
		l.lastIn = in
	}
	gg := l.gg
	for g := 0; g < l.groups; g++ {
		l.curIn = in.Data[g*gg.InC*l.chanSize : (g+1)*gg.InC*l.chanSize]
		parallel.ForChunks(tensor.PackPanels(l.cols), 1, l.fnPackIn)
		l.curW = l.weight.W.Data[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, l.fnPackW)
		l.curOut = l.out.Data[g*gg.OutC*l.cols : (g+1)*gg.OutC*l.cols]
		l.curBias = g * gg.OutC
		parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, l.fnFwd)
	}
	return l.out
}

// Backward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Backward call.
func (l *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gw, gb := l.weight.Grad().Data, l.bias.Grad().Data
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	mustShape(l.name, "gradOut", gradOut.Shape, l.goShape)
	if l.gradIn == nil {
		l.initBackward()
	}
	gg := l.gg
	l.curGB = gb
	for g := 0; g < l.groups; g++ {
		l.curGo = gradOut.Data[g*gg.OutC*l.cols : (g+1)*gg.OutC*l.cols]
		l.curIn = l.lastIn.Data[g*gg.InC*l.chanSize : (g+1)*gg.InC*l.chanSize]
		l.curW = l.weight.W.Data[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		l.curGW = gw[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		l.curBias = g * gg.OutC

		// dW = dOut · colᵀ, the patch matrix rebuilt from the input into
		// gradCol, which dIn overwrites below.
		parallel.ForChunks(gg.InC, 1, l.fnIm2Col)
		parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, l.fnPackGoA)
		parallel.ForChunks(tensor.PackPanels(l.rows), 1, l.fnPackColT)
		parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, l.fnDW)

		// dIn = col2im(Wᵀ · dOut): the GEMM tiles over disjoint patch
		// rows, the scatter over disjoint input channels.
		parallel.ForChunks(l.rows, tensor.GEMMRowGrain, l.fnPackWT)
		parallel.ForChunks(tensor.PackPanels(l.cols), 1, l.fnPackGo)
		parallel.ForChunks(l.rows, tensor.GEMMRowGrain, l.fnDIn)
		l.curGi = l.gradIn.Data[g*gg.InC*l.chanSize : (g+1)*gg.InC*l.chanSize]
		parallel.ForChunks(gg.InC, 1, l.fnCol2Im)
	}
	return l.gradIn
}

// initBackward allocates the buffers only Backward uses.
func (l *Conv2D) initBackward() {
	g, gg := l.geom, l.gg
	l.gradIn = tensor.New(g.InC, g.InH, g.InW)
	l.goPackedA = make([]float32, tensor.PackASize(gg.OutC, l.cols))
	l.colTPacked = make([]float32, tensor.PackBSize(l.cols, l.rows))
	l.wPackedAT = make([]float32, tensor.PackASize(l.rows, gg.OutC))
	l.goPackedB = make([]float32, tensor.PackBSize(gg.OutC, l.cols))
	l.gradW = make([]float32, gg.OutC*l.rows)
	l.gradCol = make([]float32, l.rows*l.cols)
}

// ShareClone implements ShareCloner: the replica shares weight values
// but owns private gradient accumulators, activation buffers and
// packed scratch.
func (l *Conv2D) ShareClone() Layer {
	c := &Conv2D{
		name:   l.name,
		geom:   l.geom,
		groups: l.groups,
		weight: l.weight.shareClone(),
		bias:   l.bias.shareClone(),
	}
	c.initScratch()
	return c
}

// FullyConnected is a dense layer: out = W·x + b. Like Conv2D it owns
// its forward/backward buffers, so the returned tensors are reused on
// the next call; gradIn is allocated on the first Backward.
type FullyConnected struct {
	name    string
	in, out int

	weight *Param
	bias   *Param

	lastIn *tensor.Tensor
	outBuf *tensor.Tensor
	gradIn *tensor.Tensor

	// batchOut holds ForwardBatch's output rows.
	batchOut tensor.Tensor
	// packed is W in the output-lane panels of tensor.PackFC, set by
	// Network.Freeze; nil while the layer trains.
	packed []float32

	// The current forward's K input rows and output rows, and the
	// current backward's output gradient.
	curX, curY, curG []float32
	curK             int

	fnFwd, fnFwdPacked, fnBwdA, fnBwdB func(lo, hi int)
}

// NewFullyConnected creates a dense layer mapping in features to out.
func NewFullyConnected(name string, in, out int) *FullyConnected {
	l := &FullyConnected{
		name: name, in: in, out: out,
		weight: newParam(name+".weight", out, in),
		bias:   newParam(name+".bias", out),
	}
	l.weight.Decay = true
	l.initScratch()
	return l
}

func (l *FullyConnected) initScratch() {
	l.outBuf = tensor.New(l.out)
	// Outputs [lo, hi) of every row: y = b + W·x, four row sums per
	// sweep; bit-identical to the per-row dot seeded with the bias.
	l.fnFwd = func(lo, hi int) {
		for i := 0; i < l.curK; i++ {
			y := l.curY[i*l.out+lo : i*l.out+hi]
			copy(y, l.bias.W.Data[lo:hi])
			tensor.MatVecAcc(y, l.weight.W.Data[lo*l.in:hi*l.in], l.curX[i*l.in:(i+1)*l.in], hi-lo, l.in)
		}
	}
	// Output panels [lo, hi) of every row through the output-lane
	// kernel, whose per-output add sequence is fnFwd's.
	l.fnFwdPacked = func(lo, hi int) {
		tensor.FCForward(l.curY, l.curX, l.packed, l.bias.W.Data, l.curK, l.in, l.out, lo, hi)
	}
	// Pass A: per-output-neuron gradients (bias row, weight row) are
	// disjoint in o.
	l.fnBwdA = func(lo, hi int) {
		x := l.lastIn.Data
		gw, gb := l.weight.G.Data, l.bias.G.Data
		for o := lo; o < hi; o++ {
			g := l.curG[o]
			gb[o] += g
			if g == 0 {
				continue
			}
			grow := gw[o*l.in : (o+1)*l.in]
			for i := range grow {
				grow[i] += g * x[i]
			}
		}
	}
	// Pass B: dIn is disjoint in i; each element accumulates over o in
	// ascending order regardless of chunking, matching the serial loop
	// bit for bit.
	l.fnBwdB = func(lo, hi int) {
		tensor.MatVecTAcc(l.gradIn.Data, l.weight.W.Data, l.curG, l.in, lo, hi)
	}
}

// Init fills the weights with He-normal initialization.
func (l *FullyConnected) Init(rng *rand.Rand) {
	l.weight.W.RandN(rng, math.Sqrt(2.0/float64(l.in)))
	l.bias.W.Zero()
}

// Name implements Layer.
func (l *FullyConnected) Name() string { return l.name }

// Params implements Layer.
func (l *FullyConnected) Params() []*Param { return []*Param{l.weight, l.bias} }

// Weight exposes the weight parameter (used by the sparsity machinery).
func (l *FullyConnected) Weight() *Param { return l.weight }

// InOut returns the (in, out) feature counts.
func (l *FullyConnected) InOut() (int, int) { return l.in, l.out }

// OutShape implements Layer.
func (l *FullyConnected) OutShape(in []int) []int { return []int{l.out} }

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *FullyConnected) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if in.Len() != l.in {
		panic(fmt.Sprintf("nn: %s: input length %d, want %d", l.name, in.Len(), l.in))
	}
	if train {
		l.lastIn = in
	}
	l.forward(in.Data, 1, l.outBuf.Data)
	return l.outBuf
}

// ForwardBatch is the inference forward of a group: x holds K input
// rows (shape [K, ...]) and the result K output rows, row i
// bit-identical to Forward of input row i. The returned tensor is
// owned by the layer and overwritten by the next ForwardBatch call.
func (l *FullyConnected) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	k := x.Shape[0]
	if len(x.Data) != k*l.in {
		panic(fmt.Sprintf("nn: %s: batch of %d rows has %d inputs, want %d per row", l.name, k, len(x.Data), l.in))
	}
	setRows(&l.batchOut, k, l.outBuf.Shape)
	l.forward(x.Data, k, l.batchOut.Data)
	return &l.batchOut
}

// forward writes the k output rows y = b + W·x of the k input rows of
// x. A frozen layer runs the output-lane kernel (tensor.FCForward) on
// its packed weights, the group split over workers by 32-output panels
// and each weight load shared by up to four rows; a trainable one runs
// MatVecAcc row by row, split by output quads. Both give every output
// the same add sequence, so they are bit-identical at any k.
func (l *FullyConnected) forward(x []float32, k int, y []float32) {
	l.curX, l.curY, l.curK = x, y, k
	if l.packed != nil {
		parallel.ForChunks(tensor.FCPanels(l.out), 1, l.fnFwdPacked)
		return
	}
	parallel.ForChunks(l.out, tensor.GEMMRowGrain, l.fnFwd)
}

// Backward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Backward call.
func (l *FullyConnected) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	// Allocate, or refuse on a frozen layer, the gradients fnBwdA
	// accumulates into.
	l.weight.Grad()
	l.bias.Grad()
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	l.curG = gradOut.Data
	parallel.ForChunks(l.out, 1, l.fnBwdA)
	if l.gradIn == nil {
		l.gradIn = tensor.New(l.in)
	}
	l.gradIn.Zero()
	parallel.ForChunks(l.in, 256, l.fnBwdB)
	return l.gradIn
}

// ShareClone implements ShareCloner.
func (l *FullyConnected) ShareClone() Layer {
	c := &FullyConnected{
		name: l.name, in: l.in, out: l.out,
		weight: l.weight.shareClone(),
		bias:   l.bias.shareClone(),
		packed: l.packed,
	}
	c.initScratch()
	return c
}
