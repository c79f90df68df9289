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
// A group of K samples runs as K convolutions that share one pack of
// each weight group, made once per call. The samples run in tiles of
// a few samples per host worker (tileSamples; one sample at one
// worker), so the scratch holds one tile, not K samples. A tile with
// at least two samples per worker splits over samples: each parallel
// chunk takes one sample through im2col and GEMM, whose packed patches
// are still in its worker's cache. A smaller tile (a lone Forward, say) splits its im2col over
// (sample × column panel) and its GEMM over (sample × output quad).
// The backward gathers and packs a tile's operands the same way, then
// takes each sample's weight gradient with its own GEMM inside a chunk
// of output quads and adds the samples into G one after another, in
// order, so G gets the adds a per-sample loop gives it.
//
// The layer owns all of its buffers, sized by the largest group it has
// run, so steady-state training steps perform no heap allocation; the
// tensors it returns are reused on the next call and must be cloned by
// callers that retain them across steps. The backward-only buffers are
// allocated on the first backward pass, so a layer that only runs
// inference never holds them.
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	groups int

	weight *Param
	bias   *Param
	params []*Param // weight and bias, as Params returns them

	// static per-group geometry, precomputed once
	gg       tensor.ConvGeom // per-group geometry (channels divided)
	g1       tensor.ConvGeom // per-channel im2col geometry (InC = 1), backward only
	rows     int             // patch-matrix rows: InCg·KH·KW
	cols     int             // patch-matrix cols: OutH·OutW
	chanRows int             // im2col rows owned by one input channel
	chanSize int             // pixels per input channel
	inShape  []int           // per-sample input shape
	outShape []int           // per-sample output shape

	// per-sample sizes: input and output elements, and the slots of the
	// K-sample operand buffers below
	inLen, outLen                     int
	bSize, goASize, colTSize, goBSize int

	out    tensor.Tensor // the K output rows
	gradIn tensor.Tensor // the K input-gradient rows; backward only
	lastIn *tensor.Tensor
	one    oneRow

	// packed-GEMM operand scratch (see internal/tensor), reused per
	// group; the per-sample operands hold one slot per sample of a tile
	wPackedA []float32 // forward A: W (OutCg×rows)
	bPacked  []float32 // forward B: patch matrices (rows×cols), packed straight from the input

	// backward-only buffers, nil until the first backward (wPackedAT and
	// goPackedB until the first that returns dIn)
	goPackedA  []float32 // dW A: dOut (OutCg×cols) per sample
	colTPacked []float32 // dW B: colᵀ (cols×rows) per sample
	wPackedAT  []float32 // dIn A: Wᵀ (rows×OutCg)
	goPackedB  []float32 // dIn B: dOut (OutCg×cols) per sample
	gradW      []float32 // one sample's weight gradient of the group
	gradCol    []float32 // patch matrices for dW, then their gradients for dIn, per sample

	// operands of the current pass, set before each parallel dispatch
	// and read by the prebuilt bodies below: the K rows of the input,
	// output, output gradient and input gradient, the current group's
	// index, weights and weight gradient, and the current tile's first
	// sample and sample count
	grp, e0, n               int
	curX, curY, curGo, curGi []float32
	curW, curGW, curGB       []float32

	// prebuilt parallel bodies: a closure built at the call site would
	// escape into the worker pool and allocate every step
	fnPackIn, fnPackW, fnFwd              func(lo, hi int)
	fnIm2Col, fnPackGoA, fnPackColT, fnDW func(lo, hi int)
	fnPackWT, fnPackGo, fnDIn, fnCol2Im   func(lo, hi int)

	// the per-sample steps of the forward, of the weight gradient's
	// operands, and of those followed by dIn's, which runTile takes
	// over a tile, and the body that takes whole samples through
	// curSteps
	fwdSteps, gradSteps, gradInSteps, curSteps []convStep
	fnSamples                                  func(lo, hi int)
}

// convStep is one per-sample step of a conv pass: body runs indices
// [lo, hi) of a tile whose samples hold units indices each.
type convStep struct {
	units int
	body  func(lo, hi int)
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
	l.params = []*Param{l.weight, l.bias}
	l.initScratch()
	return l
}

// initScratch precomputes the geometry and builds the reusable
// parallel bodies.
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
	l.outShape = []int{g.OutC, g.OutH, g.OutW}
	l.inLen, l.outLen = g.InC*l.chanSize, g.OutC*l.cols
	l.bSize = tensor.PackBSize(l.rows, l.cols)
	l.goASize = tensor.PackASize(gg.OutC, l.cols)
	l.colTSize = tensor.PackBSize(l.cols, l.rows)
	l.goBSize = tensor.PackBSize(gg.OutC, l.cols)
	l.wPackedA = make([]float32, tensor.PackASize(gg.OutC, l.rows))

	// Every per-sample body walks the (sample × unit) indices of a tile:
	// column panels, output quads or input channels. Units are disjoint
	// in each sample's destination, and samples own disjoint slots.
	//
	// The forward B operand: each column panel of a sample's patch
	// matrix is gathered from the input straight into its packed slot.
	panels := tensor.PackPanels(l.cols)
	l.fnPackIn = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, panels)
			tensor.Im2ColPacked(l.bPacked[e*l.bSize:(e+1)*l.bSize], l.inPart(l.curX, e), l.gg, a, b)
			i += b - a
		}
	}
	// Output channels are independent GEMM rows; chunking on the quad
	// grain changes nothing about each row's accumulation order.
	quads := tensor.PackQuads(gg.OutC)
	l.fnFwd = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, quads)
			r0, r1 := a*tensor.GEMMRowGrain, min(b*tensor.GEMMRowGrain, l.gg.OutC)
			y := l.outPart(l.curY, e)
			tensor.MatMulPacked(y, l.wPackedA, l.bPacked[e*l.bSize:(e+1)*l.bSize], l.gg.OutC, l.rows, l.cols, r0, r1)
			for oc := r0; oc < r1; oc++ {
				bv := l.bias.W.Data[l.grp*l.gg.OutC+oc]
				row := y[oc*l.cols : (oc+1)*l.cols]
				for j := range row {
					row[j] += bv
				}
			}
			i += b - a
		}
	}
	// Backward rebuilds the patch matrices dW needs. Each input channel
	// owns a contiguous row band of one, so channels expand (and
	// scatter back) independently.
	band := l.chanRows * l.cols
	l.fnIm2Col = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e, c := i/l.gg.InC, i%l.gg.InC
			col := l.gradCol[e*l.rows*l.cols+c*band:][:band]
			tensor.Im2Col(col, l.inPart(l.curX, e)[c*l.chanSize:(c+1)*l.chanSize], l.g1)
		}
	}
	l.fnCol2Im = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e, c := i/l.gg.InC, i%l.gg.InC
			// Col2Im scatter-accumulates, and gradIn is reused across
			// calls: the channel must start from zero every time.
			gi := l.inPart(l.curGi, e)[c*l.chanSize : (c+1)*l.chanSize]
			clear(gi)
			tensor.Col2Im(gi, l.gradCol[e*l.rows*l.cols+c*band:][:band], l.g1)
		}
	}
	// Packing only copies, so no split can change a byte.
	l.fnPackW = func(lo, hi int) {
		tensor.PackARange(l.wPackedA, l.curW, l.gg.OutC, l.rows, lo, hi)
	}
	l.fnPackWT = func(lo, hi int) {
		tensor.PackATRange(l.wPackedAT, l.curW, l.rows, l.gg.OutC, lo, hi)
	}
	l.fnPackGoA = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, quads)
			tensor.PackARange(l.goPackedA[e*l.goASize:(e+1)*l.goASize], l.outPart(l.curGo, e), l.gg.OutC, l.cols,
				a*tensor.GEMMRowGrain, min(b*tensor.GEMMRowGrain, l.gg.OutC))
			i += b - a
		}
	}
	rowPanels := tensor.PackPanels(l.rows)
	l.fnPackColT = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, rowPanels)
			tensor.PackBTRange(l.colTPacked[e*l.colTSize:(e+1)*l.colTSize], l.gradCol[e*l.rows*l.cols:(e+1)*l.rows*l.cols], l.cols, l.rows, a, b)
			i += b - a
		}
	}
	l.fnPackGo = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, panels)
			tensor.PackBRange(l.goPackedB[e*l.goBSize:(e+1)*l.goBSize], l.outPart(l.curGo, e), l.gg.OutC, l.cols, a, b)
			i += b - a
		}
	}
	// dW = dOut · colᵀ and db = row sums of dOut, per sample: both are
	// disjoint per output channel, and within a chunk the samples add
	// into G in order.
	l.fnDW = func(lo, hi int) {
		for e := 0; e < l.n; e++ {
			tensor.MatMulPacked(l.gradW, l.goPackedA[e*l.goASize:(e+1)*l.goASize], l.colTPacked[e*l.colTSize:(e+1)*l.colTSize],
				l.gg.OutC, l.cols, l.rows, lo, hi)
			d := l.curGW[lo*l.rows : hi*l.rows]
			for j, v := range l.gradW[lo*l.rows : hi*l.rows] {
				d[j] += v
			}
			gout := l.outPart(l.curGo, e)
			for oc := lo; oc < hi; oc++ {
				s := float32(0)
				for _, v := range gout[oc*l.cols : (oc+1)*l.cols] {
					s += v
				}
				l.curGB[l.grp*l.gg.OutC+oc] += s
			}
		}
	}
	// dIn patch rows are disjoint; each keeps MatMulATB's exact
	// accumulation order.
	rowQuads := tensor.PackQuads(l.rows)
	l.fnDIn = func(lo, hi int) {
		for i := lo; i < hi; {
			e, a, b := rowSpan(i, hi, rowQuads)
			tensor.MatMulPacked(l.gradCol[e*l.rows*l.cols:(e+1)*l.rows*l.cols], l.wPackedAT, l.goPackedB[e*l.goBSize:(e+1)*l.goBSize],
				l.rows, l.gg.OutC, l.cols, a*tensor.GEMMRowGrain, min(b*tensor.GEMMRowGrain, l.rows))
			i += b - a
		}
	}

	l.fwdSteps = []convStep{{panels, l.fnPackIn}, {quads, l.fnFwd}}
	l.gradSteps = []convStep{{gg.InC, l.fnIm2Col}, {quads, l.fnPackGoA}, {rowPanels, l.fnPackColT}}
	// dIn overwrites each sample's patch matrix once its colᵀ is
	// packed; the weight gradient reads only the packed operands.
	l.gradInSteps = append(l.gradSteps[:len(l.gradSteps):len(l.gradSteps)],
		convStep{panels, l.fnPackGo}, convStep{rowQuads, l.fnDIn}, convStep{gg.InC, l.fnCol2Im})
	l.fnSamples = func(lo, hi int) {
		for e := lo; e < hi; e++ {
			for _, st := range l.curSteps {
				st.body(e*st.units, (e+1)*st.units)
			}
		}
	}
}

// runTile runs steps over the current tile. When the tile holds at
// least two samples per worker, each parallel chunk takes one whole
// sample through every step in turn, so a sample's operands stay in
// its worker's cache and the tile costs one parallel call; otherwise
// each step splits over (sample × unit).
func (l *Conv2D) runTile(steps []convStep) {
	if l.n >= 2*parallel.Workers() {
		l.curSteps = steps
		parallel.ForChunks(l.n, 1, l.fnSamples)
		return
	}
	for _, st := range steps {
		parallel.ForChunks(l.n*st.units, 1, st.body)
	}
}

// inPart returns the current group's channels of sample e of the
// current tile in s, a group of input rows.
func (l *Conv2D) inPart(s []float32, e int) []float32 {
	n := l.gg.InC * l.chanSize
	return s[(l.e0+e)*l.inLen+l.grp*n:][:n]
}

// outPart returns the current group's channels of sample e of the
// current tile in s, a group of output rows.
func (l *Conv2D) outPart(s []float32, e int) []float32 {
	n := l.gg.OutC * l.cols
	return s[(l.e0+e)*l.outLen+l.grp*n:][:n]
}

// packRows returns the rows per parallel chunk of a weight pack whose
// rows hold n floats: whole quads of about fcPackChunk floats, so a
// small layer packs inline on the caller.
func packRows(n int) int {
	q := tensor.GEMMRowGrain
	return max(q, (fcPackChunk/n+q-1)/q*q)
}

// tileSamples is the sample count per host worker of the tiles a conv
// layer runs a group in: enough that each parallel call has a few
// samples' work per worker to balance and to pay for its start, few
// enough that a tile's packed operands stay in cache.
const tileSamples = 4

// tile returns the sample count of the tiles a group of k samples runs
// in. One worker splits no call, so it runs one sample at a time and
// its scratch holds one sample's operands.
func tile(k int) int {
	w := parallel.Workers()
	if w == 1 {
		return 1
	}
	return min(k, tileSamples*w)
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
func (l *Conv2D) Params() []*Param { return l.params }

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

// Forward implements Layer.
func (l *Conv2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

// Backward implements Layer.
func (l *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor { return l.one.backward(l, gradOut) }

func (l *Conv2D) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := checkRows(l.name, "input", x, l.inShape)
	if train {
		l.lastIn = x
	}
	setRows(&l.out, k, l.outShape)
	t := tile(k)
	l.bPacked = grow(l.bPacked, t*l.bSize)
	l.curX, l.curY = x.Data, l.out.Data
	gg := l.gg
	for g := 0; g < l.groups; g++ {
		l.grp = g
		l.curW = l.weight.W.Data[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		parallel.ForChunks(gg.OutC, packRows(l.rows), l.fnPackW)
		for l.e0 = 0; l.e0 < k; l.e0 += t {
			l.n = min(t, k-l.e0)
			l.runTile(l.fwdSteps)
		}
	}
	return &l.out
}

// backwardRows adds the K samples' parameter gradients and, when
// wantIn is set, returns the K rows of dIn; else it skips the dIn GEMM
// and col2im and returns nil.
func (l *Conv2D) backwardRows(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor {
	gw, gb := l.weight.Grad().Data, l.bias.Grad().Data
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	k := checkRows(l.name, "gradOut", gradOut, l.outShape)
	if k != l.lastIn.Shape[0] {
		panic(fmt.Sprintf("nn: %s: %d gradient rows for a forward of %d", l.name, k, l.lastIn.Shape[0]))
	}
	gg, t := l.gg, tile(k)
	l.goPackedA = grow(l.goPackedA, t*l.goASize)
	l.colTPacked = grow(l.colTPacked, t*l.colTSize)
	l.gradCol = grow(l.gradCol, t*l.rows*l.cols)
	l.gradW = grow(l.gradW, gg.OutC*l.rows)
	if wantIn {
		l.wPackedAT = grow(l.wPackedAT, tensor.PackASize(l.rows, gg.OutC))
		l.goPackedB = grow(l.goPackedB, t*l.goBSize)
		setRows(&l.gradIn, k, l.inShape)
		l.curGi = l.gradIn.Data
	}
	l.curX, l.curGo, l.curGB = l.lastIn.Data, gradOut.Data, gb
	for g := 0; g < l.groups; g++ {
		l.grp = g
		l.curW = l.weight.W.Data[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		l.curGW = gw[g*gg.OutC*l.rows : (g+1)*gg.OutC*l.rows]
		if wantIn {
			parallel.ForChunks(l.rows, packRows(gg.OutC), l.fnPackWT)
		}
		for l.e0 = 0; l.e0 < k; l.e0 += t {
			l.n = min(t, k-l.e0)
			// Each sample's patch matrix is rebuilt from its input into
			// gradCol and packed as colᵀ for dW = dOut · colᵀ; with dIn,
			// col2im(Wᵀ · dOut) then overwrites it. The GEMMs tile over
			// disjoint rows, the scatter over disjoint input channels.
			if wantIn {
				l.runTile(l.gradInSteps)
			} else {
				l.runTile(l.gradSteps)
			}
			parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, l.fnDW)
		}
	}
	if !wantIn {
		return nil
	}
	return &l.gradIn
}

// FullyConnected is a dense layer: out = W·x + b. A group of K
// examples runs as the rows of one [K, in] tensor. Like Conv2D it owns
// its buffers, so the returned tensors are reused on the next call;
// the backward-only buffers are allocated on the first backward.
//
// Its forward has two kernels that give every output the same add
// sequence, so they are bit-identical. Wherever a run of forwards
// shares one version of W, the layer packs W once into the output-lane
// panels of tensor.PackFC and runs tensor.FCForward, the group split
// over workers by 32-output panels and each weight load shared by up
// to four rows: through a trainer batch (packed at its start), through
// one Network.Accuracy pass, and for good after Network.Freeze. An
// isolated forward of a trainable layer (Predict, ForwardBatch,
// calibration) runs tensor.MatVecAcc row by row on W as it is, so a
// net that never trains holds no second copy of its weights.
//
// Its backward adds the weight gradient of all K rows with one
// accumulating GEMM, G[o][i] += Σₑ g[e][o]·x[e][i] with e ascending,
// whose inner dimension is the group: every element of G gets the
// adds, in the order, that example-by-example accumulation gives it.
// The K rows of dIn take one K-row product (tensor.MatVecTAccRows).
type FullyConnected struct {
	name    string
	in, out int

	weight *Param
	bias   *Param
	params []*Param // weight and bias, as Params returns them

	lastIn *tensor.Tensor
	y      tensor.Tensor // the K output rows
	gradIn tensor.Tensor // the K input-gradient rows; backward only
	one    oneRow

	// wp holds W packed into output-lane panels, current while packed
	// is set: from a trainer batch's start to its end, through one
	// Accuracy pass, and for good after Freeze. W cannot change inside
	// any of those, so a pack made at their start is never stale, and
	// no writer of W has to report its writes. The buffer outlives each
	// pass, so the next pack reuses it.
	wp     []float32
	packed bool
	// xp holds a backward's K input rows packed as its weight GEMM's
	// B operand (k×in), gp its K output-gradient rows packed as A
	// (out×k); backward only.
	xp, gp []float32

	// The current forward's K input rows and output rows, and the
	// current backward's K output-gradient rows and input-gradient
	// rows.
	curX, curY, curG, curDIn []float32
	curK                     int

	packGrain                                   int // panels per parallel chunk of the pack
	fnFwd, fnFwdPacked, fnPack, fnGrad, fnBwdIn func(lo, hi int)
}

// NewFullyConnected creates a dense layer mapping in features to out.
func NewFullyConnected(name string, in, out int) *FullyConnected {
	l := &FullyConnected{
		name: name, in: in, out: out,
		weight: newParam(name+".weight", out, in),
		bias:   newParam(name+".bias", out),
	}
	l.weight.Decay = true
	l.params = []*Param{l.weight, l.bias}
	l.initScratch()
	return l
}

func (l *FullyConnected) initScratch() {
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
		tensor.FCForward(l.curY, l.curX, l.wp, l.bias.W.Data, l.curK, l.in, l.out, lo, hi)
	}
	l.packGrain = max(1, fcPackChunk/(tensor.FCPanelW*l.in))
	l.fnPack = func(lo, hi int) {
		tensor.PackFCRange(l.wp, l.weight.W.Data, l.out, l.in, lo, hi)
	}
	// The group's gradients of outputs [lo, hi): the A quads of those
	// outputs, the GEMM rows they feed, and their bias sums in example
	// order are all disjoint in o.
	l.fnGrad = func(lo, hi int) {
		k := l.curK
		tensor.PackATRange(l.gp, l.curG, l.out, k, lo, hi)
		tensor.MatMulPackedAcc(l.weight.G.Data, l.gp, l.xp, l.out, k, l.in, lo, hi)
		gb := l.bias.G.Data
		for e := 0; e < k; e++ {
			for o, v := range l.curG[e*l.out+lo : e*l.out+hi] {
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
func (l *FullyConnected) Params() []*Param { return l.params }

// Weight exposes the weight parameter (used by the sparsity machinery).
func (l *FullyConnected) Weight() *Param { return l.weight }

// InOut returns the (in, out) feature counts.
func (l *FullyConnected) InOut() (int, int) { return l.in, l.out }

// OutShape implements Layer.
func (l *FullyConnected) OutShape(in []int) []int { return []int{l.out} }

// Forward implements Layer.
func (l *FullyConnected) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

// Backward implements Layer.
func (l *FullyConnected) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return l.one.backward(l, gradOut)
}

// forwardRows writes the K output rows y = b + W·x of the K input rows
// of x, whatever their per-row shape. While wp holds the current W it
// runs the output-lane kernel on it, split over workers by output
// panels; otherwise it runs MatVecAcc row by row on W, split by output
// quads.
func (l *FullyConnected) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := x.Shape[0]
	if len(x.Data) != k*l.in {
		panic(fmt.Sprintf("nn: %s: input shape %v, want rows of %d", l.name, x.Shape, l.in))
	}
	if train {
		l.lastIn = x
	}
	setRows(&l.y, k, []int{l.out})
	l.curX, l.curY, l.curK = x.Data, l.y.Data, k
	if l.packed {
		parallel.ForChunks(tensor.FCPanels(l.out), 1, l.fnFwdPacked)
	} else {
		parallel.ForChunks(l.out, tensor.GEMMRowGrain, l.fnFwd)
	}
	return &l.y
}

// backwardRows adds the weight and bias gradients of the K rows into
// G, and returns the K rows of dIn when wantIn is set, else nil.
func (l *FullyConnected) backwardRows(gradOut *tensor.Tensor, wantIn bool) *tensor.Tensor {
	// Allocate, or refuse on a frozen layer, the gradients first.
	l.weight.Grad()
	l.bias.Grad()
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	k := l.lastIn.Shape[0]
	if len(gradOut.Data) != k*l.out {
		panic(fmt.Sprintf("nn: %s: %d gradients for a forward of %d rows of %d→%d",
			l.name, len(gradOut.Data), k, l.in, l.out))
	}
	l.xp = grow(l.xp, tensor.PackBSize(k, l.in))
	l.gp = grow(l.gp, tensor.PackASize(l.out, k))
	tensor.PackB(l.xp, l.lastIn.Data, k, l.in)
	l.curG, l.curK = gradOut.Data, k
	parallel.ForChunks(l.out, tensor.GEMMRowGrain, l.fnGrad)
	if !wantIn {
		return nil
	}
	setRows(&l.gradIn, k, []int{l.in})
	clear(l.gradIn.Data)
	l.curDIn = l.gradIn.Data
	parallel.ForChunks(l.in, 256, l.fnBwdIn)
	return &l.gradIn
}

// fcPackChunk is the float count a parallel chunk of the weight pack
// aims for; chunks hold whole panels.
const fcPackChunk = 16384

// pack packs W into the panels, split over workers by panel, and marks
// them current.
func (l *FullyConnected) pack() {
	l.wp = grow(l.wp, tensor.PackFCSize(l.out, l.in))
	parallel.ForChunks(tensor.FCPanels(l.out), l.packGrain, l.fnPack)
	l.packed = true
}
