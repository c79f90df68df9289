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

	// backward-only buffers, nil until the first Backward (gradIn,
	// wPackedAT and goPackedB until the first that returns dIn)
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
	return l.backward(gradOut, -1, true)
}

// backward accumulates the parameter gradients and, when wantIn is
// set, returns dIn; else it skips the dIn GEMM and col2im and returns
// nil. The example row e does not matter to a conv layer.
func (l *Conv2D) backward(gradOut *tensor.Tensor, _ int, wantIn bool) *tensor.Tensor {
	gw, gb := l.weight.Grad().Data, l.bias.Grad().Data
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	mustShape(l.name, "gradOut", gradOut.Shape, l.goShape)
	if l.gradW == nil {
		l.initBackward()
	}
	if wantIn && l.gradIn == nil {
		l.initBackwardIn()
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
		if !wantIn {
			continue
		}

		// dIn = col2im(Wᵀ · dOut): the GEMM tiles over disjoint patch
		// rows, the scatter over disjoint input channels.
		parallel.ForChunks(l.rows, tensor.GEMMRowGrain, l.fnPackWT)
		parallel.ForChunks(tensor.PackPanels(l.cols), 1, l.fnPackGo)
		parallel.ForChunks(l.rows, tensor.GEMMRowGrain, l.fnDIn)
		l.curGi = l.gradIn.Data[g*gg.InC*l.chanSize : (g+1)*gg.InC*l.chanSize]
		parallel.ForChunks(gg.InC, 1, l.fnCol2Im)
	}
	if !wantIn {
		return nil
	}
	return l.gradIn
}

// initBackward allocates the buffers the weight gradient uses.
func (l *Conv2D) initBackward() {
	gg := l.gg
	l.goPackedA = make([]float32, tensor.PackASize(gg.OutC, l.cols))
	l.colTPacked = make([]float32, tensor.PackBSize(l.cols, l.rows))
	l.gradW = make([]float32, gg.OutC*l.rows)
	l.gradCol = make([]float32, l.rows*l.cols)
}

// initBackwardIn allocates the buffers only the input gradient uses;
// a net's first conv layer never needs them in training.
func (l *Conv2D) initBackwardIn() {
	g, gg := l.geom, l.gg
	l.gradIn = tensor.New(g.InC, g.InH, g.InW)
	l.wPackedAT = make([]float32, tensor.PackASize(l.rows, gg.OutC))
	l.goPackedB = make([]float32, tensor.PackBSize(gg.OutC, l.cols))
}

// ShareClone implements ShareCloner: the replica shares weight values
// but owns private gradient accumulators, activation buffers and
// packed scratch.
func (l *Conv2D) ShareClone() Layer {
	c := &Conv2D{
		name:   l.name,
		geom:   l.geom,
		groups: l.groups,
		weight: l.weight.shareClone(true),
		bias:   l.bias.shareClone(true),
	}
	c.initScratch()
	return c
}

// FullyConnected is a dense layer: out = W·x + b. Like Conv2D it owns
// its forward/backward buffers, so the returned tensors are reused on
// the next call; gradIn is allocated on the first Backward that needs
// it.
//
// Its forward has two kernels that give every output the same add
// sequence, so they are bit-identical. Wherever a run of forwards
// shares one version of W, the layer packs W once into the output-lane
// panels of tensor.PackFC and runs tensor.FCForward: through a trainer
// batch (packed at its start, on the master and seen by every
// replica), through one Network.Accuracy pass, and for good after
// Network.Freeze. An isolated forward of a trainable layer (Predict,
// calibration) runs tensor.MatVecAcc on W as it is, so a net that
// never trains holds no second copy of its weights.
//
// Its weight gradient is not accumulated example by example. Backward
// records the example's input row and output gradient in the layer's
// batch (fcBatch), and the batch's end adds them into G with one GEMM.
//
// It is a row layer: a group of K examples runs as the rows of one
// [K, in] tensor, forward through one FCForward call and backward as
// one record of all K rows and one K-row input gradient
// (tensor.MatVecTAccRows).
type FullyConnected struct {
	name    string
	in, out int

	weight *Param
	bias   *Param

	lastIn *tensor.Tensor
	outBuf *tensor.Tensor
	gradIn *tensor.Tensor

	// batch holds the rows of the open trainer batch and the packed
	// weights; the layer and its ShareClone replicas share it.
	batch *fcBatch

	// batchOut holds the output rows of a group, batchGradIn its
	// input-gradient rows.
	batchOut, batchGradIn tensor.Tensor

	// The current forward's K input rows and output rows, and the
	// current backward's K output-gradient rows and input-gradient
	// rows.
	curX, curY, curG, curDIn []float32
	curK                     int

	packGrain                                   int // panels per parallel chunk of the pack
	fnFwd, fnFwdPacked, fnPack, fnGrad, fnBwdIn func(lo, hi int)
}

// fcBatch is one FC layer's record of a trainer batch of k examples:
// example e's input row is row e of x, packed straight into the GEMM's
// B operand (tensor.PackBRow), and its output gradient is row e of g.
// Examples write disjoint rows, so replicas fill one fcBatch
// concurrently. The weight gradient of the batch is then
// G[o][i] += Σₑ g[e][o]·x[e][i] with e ascending: one accumulating GEMM
// whose inner dimension is the batch, giving every element of G the
// adds, in the order, that accumulating example by example gives it.
//
// It also holds W packed into output-lane panels (wp), current while
// packed is set: from a trainer batch's start to its flush, through
// one Accuracy pass, and for good after Freeze. W cannot change inside
// any of those, so a pack made at their start is never stale, and no
// writer of W has to report its writes. The buffer outlives each pass,
// so the next pack reuses it.
type fcBatch struct {
	k  int       // examples in the open batch; 0 when none is open
	x  []float32 // k input rows, packed as a k×in B operand
	g  []float32 // k output-gradient rows, row-major k×out
	gp []float32 // g packed as the out×k A operand, at flush

	wp     []float32 // W in the panels of tensor.PackFC
	packed bool      // wp holds the current W
}

// NewFullyConnected creates a dense layer mapping in features to out.
func NewFullyConnected(name string, in, out int) *FullyConnected {
	l := &FullyConnected{
		name: name, in: in, out: out,
		weight: newParam(name+".weight", out, in),
		bias:   newParam(name+".bias", out),
		batch:  new(fcBatch),
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
		tensor.FCForward(l.curY, l.curX, l.batch.wp, l.bias.W.Data, l.curK, l.in, l.out, lo, hi)
	}
	l.packGrain = max(1, fcPackChunk/(tensor.FCPanelW*l.in))
	l.fnPack = func(lo, hi int) {
		tensor.PackFCRange(l.batch.wp, l.weight.W.Data, l.out, l.in, lo, hi)
	}
	// The batch's gradients of outputs [lo, hi): the A quads of those
	// outputs, the GEMM rows they feed, and their bias sums in example
	// order are all disjoint in o.
	l.fnGrad = func(lo, hi int) {
		b := l.batch
		tensor.PackATRange(b.gp, b.g, l.out, b.k, lo, hi)
		tensor.MatMulPackedAcc(l.weight.G.Data, b.gp, b.x, l.out, b.k, l.in, lo, hi)
		gb := l.bias.G.Data
		for e := 0; e < b.k; e++ {
			for o, v := range b.g[e*l.out+lo : e*l.out+hi] {
				gb[lo+o] += v
			}
		}
	}
	// dIn is disjoint in i; each element of each row accumulates over
	// o in ascending order regardless of chunking, matching the serial
	// loop bit for bit.
	l.fnBwdIn = func(lo, hi int) {
		tensor.MatVecTAccRows(l.curDIn, l.weight.W.Data, l.curG, l.curK, l.out, l.in, lo, hi)
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

func (l *FullyConnected) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := l.ForwardBatch(x)
	if train {
		l.lastIn = x
	}
	return y
}

// forward writes the k output rows y = b + W·x of the k input rows of
// x. While the shared panels hold the current W (fcBatch.packed) it
// runs the output-lane kernel (tensor.FCForward) on them, the group
// split over workers by 32-output panels and each weight load shared
// by up to four rows; otherwise it runs MatVecAcc row by row on W,
// split by output quads. Both give every output the same add sequence,
// so they are bit-identical at any k.
func (l *FullyConnected) forward(x []float32, k int, y []float32) {
	l.curX, l.curY, l.curK = x, y, k
	if l.batch.packed {
		parallel.ForChunks(tensor.FCPanels(l.out), 1, l.fnFwdPacked)
		return
	}
	parallel.ForChunks(l.out, tensor.GEMMRowGrain, l.fnFwd)
}

// Backward implements Layer: it adds this example's weight and bias
// gradients into G, as a batch of one, and returns dIn. The returned
// tensor is owned by the layer and overwritten by the next Backward
// call.
func (l *FullyConnected) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return l.backward(gradOut, -1, true)
}

// backward records the example in row e of the open trainer batch, or,
// for e < 0, in a batch of one that it adds into G at once. It returns
// dIn when wantIn is set, else nil.
func (l *FullyConnected) backward(gradOut *tensor.Tensor, e int, wantIn bool) *tensor.Tensor {
	single := e < 0
	if single {
		// Allocate, or refuse on a frozen layer, the gradients the
		// flush accumulates into.
		l.weight.Grad()
		l.bias.Grad()
	}
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	if len(gradOut.Data) != l.out {
		panic(fmt.Sprintf("nn: %s: gradOut length %d, want %d", l.name, len(gradOut.Data), l.out))
	}
	if single {
		l.beginBatch(1)
		e = 0
	}
	b := l.batch
	tensor.PackBRow(b.x, l.lastIn.Data, b.k, e)
	copy(b.g[e*l.out:(e+1)*l.out], gradOut.Data)
	if single {
		l.flushBatch()
	}
	if !wantIn {
		return nil
	}
	if l.gradIn == nil {
		l.gradIn = tensor.New(l.in)
	}
	l.backwardIn(gradOut.Data, 1, l.gradIn.Data)
	return l.gradIn
}

// backwardRows records all K rows of the open trainer batch at once:
// the K input rows packed as the batch's B operand and the K
// output-gradient rows, the same x and g that K per-example backward
// calls fill row by row. It returns the K rows of dIn when wantIn is
// set, else nil.
func (l *FullyConnected) backwardRows(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor {
	b := l.batch
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	if b.k == 0 || len(gradOut.Data) != b.k*l.out || len(l.lastIn.Data) != b.k*l.in {
		panic(fmt.Sprintf("nn: %s: %d gradients and %d inputs for a batch of %d rows of %d→%d",
			l.name, len(gradOut.Data), len(l.lastIn.Data), b.k, l.in, l.out))
	}
	tensor.PackB(b.x, l.lastIn.Data, b.k, l.in)
	copy(b.g, gradOut.Data)
	if !wantIn {
		return nil
	}
	setRows(&l.batchGradIn, b.k, []int{l.in})
	l.backwardIn(gradOut.Data, b.k, l.batchGradIn.Data)
	return &l.batchGradIn
}

// backwardIn writes the k rows of dIn = Wᵀ·g into dIn, split over
// workers by input columns.
func (l *FullyConnected) backwardIn(g []float32, k int, dIn []float32) {
	clear(dIn)
	l.curG, l.curK, l.curDIn = g, k, dIn
	parallel.ForChunks(l.in, 256, l.fnBwdIn)
}

// beginBatch opens a batch of k examples, sizing the shared rows; a
// steady mix of batch sizes allocates nothing.
func (l *FullyConnected) beginBatch(k int) {
	b := l.batch
	b.k = k
	b.x = grow(b.x, tensor.PackBSize(k, l.in))
	b.g = grow(b.g, k*l.out)
	b.gp = grow(b.gp, tensor.PackASize(l.out, k))
}

// flushBatch adds the open batch's weight gradient into G with one
// GEMM, split over output quads, and its bias gradient, summed in
// example order, then closes the batch.
func (l *FullyConnected) flushBatch() {
	l.weight.Grad()
	l.bias.Grad()
	parallel.ForChunks(l.out, tensor.GEMMRowGrain, l.fnGrad)
	l.batch.k = 0
}

// fcPackChunk is the float count a parallel chunk of the weight pack
// aims for; chunks hold whole panels.
const fcPackChunk = 16384

// pack packs W into the shared panels, split over workers by panel, and
// marks them current.
func (l *FullyConnected) pack() {
	b := l.batch
	b.wp = grow(b.wp, tensor.PackFCSize(l.out, l.in))
	parallel.ForChunks(tensor.FCPanels(l.out), l.packGrain, l.fnPack)
	b.packed = true
}

// ShareClone implements ShareCloner. The replica shares the weights and
// the batch, with its rows and packed weights; it holds no gradient,
// because its examples reach G through the batch.
func (l *FullyConnected) ShareClone() Layer {
	c := &FullyConnected{
		name: l.name, in: l.in, out: l.out,
		weight: l.weight.shareClone(false),
		bias:   l.bias.shareClone(false),
		batch:  l.batch,
	}
	c.initScratch()
	return c
}
