package nn

import (
	"fmt"

	"learn2scale/internal/fixed"
	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// Scaled-int16 quantized inference engine.
//
// QuantizeNetwork turns a trained float network into a QuantNetwork:
// conv and FC layers run on the packed int16 GEMM fast path (int16
// patches packed from the input → VPMADDWD-style kernels → int32
// accumulators), every other layer falls back to its float forward.
// Like the float network it runs a group of K inputs as the rows of
// one [K, ...] tensor, one call per layer, and a lone input as a group
// of one.
// Between the two worlds the activations requantize: each quantized
// layer owns one per-tensor input scale from a calibration pass over a
// held-out batch, and per-output-channel weight scales, so its int32
// accumulator dequantizes as acc · (inScale · wScale[oc]) + bias.
//
// It is the repo's one 16-bit datapath: every quantizer rounds half to
// even (see internal/fixed/quant.go and DESIGN.md §10).
//
// Determinism: quantization is elementwise and the int16 GEMM is
// exact, so QuantNetwork.Forward is bit-identical at any worker count
// — the same contract the float path earns with ascending-k
// accumulation, earned here for free by integer arithmetic.

// CalibConfig configures the calibration pass of QuantizeNetwork.
type CalibConfig struct {
	Method     fixed.CalibMethod
	Percentile float64 // used by CalibPercentile, e.g. 99.9
}

// quantLayer is one stage of a quantized network: forwardRows maps a
// group of K input rows to K output rows, each row's result
// independent of K.
type quantLayer interface {
	Name() string
	forwardRows(x *tensor.Tensor) *tensor.Tensor
}

// QuantNetwork is the int16 inference twin of a Network.
type QuantNetwork struct {
	Name   string
	layers []quantLayer

	// rows holds the gathered inputs of a ForwardBatch; one holds
	// Forward's one-row headers.
	rows tensor.Tensor
	one  oneRow
}

// floatFallback wraps a layer with no quantized implementation; it
// runs the float forward in inference mode.
type floatFallback struct{ l Layer }

func (f floatFallback) Name() string { return f.l.Name() }
func (f floatFallback) forwardRows(x *tensor.Tensor) *tensor.Tensor {
	return f.l.forwardRows(x, false)
}

// quantConv runs a Conv2D layer on the int16 GEMM path, one sample of
// a group after another: quantize the sample once, gather each channel
// group's int16 patch matrix straight into the packed B panels, packed
// integer GEMM, then dequantize per output channel and add the float
// bias. Mirrors Conv2D's scratch-owning, prebuilt-parallel-body
// structure so the steady state allocates nothing.
type quantConv struct {
	name   string
	geom   tensor.ConvGeom
	gg     tensor.ConvGeom
	groups int

	rows, cols int
	chanSize   int
	inShape    []int
	outShape   []int

	qmax    int32 // accumulator-safe clamp: AccQMax(rows)
	inScale float32
	wScales []float32 // per output channel, len OutC
	wPacked [][]int16 // per group: packed A, OutCg × rows
	bias    []float32

	qin     []int16 // one quantized input sample, len InC·InH·InW
	bPacked []int16 // packed B: the current group's patch matrix
	out32   []int32 // one group's int32 accumulators, OutCg × cols
	out     tensor.Tensor

	curInF  []float32
	curQIn  []int16
	curOut  []float32
	curW    []int16
	curBias int

	fnQuant, fnPackIn, fnFwd func(lo, hi int)
}

func newQuantConv(l *Conv2D, inRange float64) *quantConv {
	g := l.geom
	q := &quantConv{
		name:     l.name,
		geom:     g,
		gg:       l.gg,
		groups:   l.groups,
		rows:     l.rows,
		cols:     l.cols,
		chanSize: l.chanSize,
		inShape:  l.inShape,
		outShape: l.outShape,
	}
	// The GEMM reduces over rows = InCg·KH·KW products; clamp both
	// operands to ±AccQMax(rows) so int32 accumulation cannot wrap.
	q.qmax = fixed.AccQMax(q.rows)
	q.inScale = fixed.ScaleForQ(inRange, q.qmax)
	// Per-output-channel weight scales over the OutCg×rows group
	// matrices, then quantize and pack each group's rows once.
	w := l.weight.W.Data
	q.wScales = make([]float32, g.OutC)
	for oc := 0; oc < g.OutC; oc++ {
		q.wScales[oc] = fixed.ScaleForQ(fixed.MaxAbs(w[oc*q.rows:(oc+1)*q.rows]), q.qmax)
	}
	qw := make([]int16, q.rows) // one row's quantized weights
	q.wPacked = make([][]int16, q.groups)
	for grp := 0; grp < q.groups; grp++ {
		packed := make([]int16, tensor.PackASizeInt16(q.gg.OutC, q.rows))
		rowMajor := make([]int16, q.gg.OutC*q.rows)
		for r := 0; r < q.gg.OutC; r++ {
			oc := grp*q.gg.OutC + r
			fixed.QuantizeScaledQ(qw, w[oc*q.rows:(oc+1)*q.rows], q.wScales[oc], q.qmax)
			copy(rowMajor[r*q.rows:(r+1)*q.rows], qw)
		}
		tensor.PackAInt16(packed, rowMajor, q.gg.OutC, q.rows)
		q.wPacked[grp] = packed
	}
	q.bias = l.bias.W.Data

	q.qin = make([]int16, g.InC*g.InH*g.InW)
	q.bPacked = make([]int16, tensor.PackBSizeInt16(q.rows, q.cols))
	q.out32 = make([]int32, q.gg.OutC*q.cols)

	q.fnQuant = func(lo, hi int) {
		fixed.QuantizeScaledQ(q.qin[lo:hi], q.curInF[lo:hi], q.inScale, q.qmax)
	}
	q.fnPackIn = func(lo, hi int) {
		tensor.Im2ColPackedInt16(q.bPacked, q.curQIn, q.gg, lo, hi)
	}
	q.fnFwd = func(lo, hi int) {
		tensor.MatMulPackedInt16(q.out32, q.curW, q.bPacked, q.gg.OutC, q.rows, q.cols, lo, hi)
		for oc := lo; oc < hi; oc++ {
			s := q.inScale * q.wScales[q.curBias+oc]
			b := q.bias[q.curBias+oc]
			dst := q.curOut[oc*q.cols : (oc+1)*q.cols]
			src := q.out32[oc*q.cols : (oc+1)*q.cols]
			for i, v := range src {
				dst[i] = float32(v)*s + b
			}
		}
	}
	return q
}

func (q *quantConv) Name() string { return q.name }

func (q *quantConv) forwardRows(x *tensor.Tensor) *tensor.Tensor {
	k := checkRows(q.name, "input", x, q.inShape)
	setRows(&q.out, k, q.outShape)
	n, gg := len(q.qin), q.gg
	outLen := len(q.out.Data) / k
	for e := 0; e < k; e++ {
		q.curInF = x.Data[e*n : (e+1)*n]
		parallel.ForChunks(n, 4096, q.fnQuant)
		y := q.out.Data[e*outLen : (e+1)*outLen]
		for grp := 0; grp < q.groups; grp++ {
			q.curQIn = q.qin[grp*gg.InC*q.chanSize : (grp+1)*gg.InC*q.chanSize]
			parallel.ForChunks(tensor.PackPanels(q.cols), 1, q.fnPackIn)
			q.curW = q.wPacked[grp]
			q.curOut = y[grp*gg.OutC*q.cols : (grp+1)*gg.OutC*q.cols]
			q.curBias = grp * gg.OutC
			parallel.ForChunks(gg.OutC, tensor.GEMMRowGrain, q.fnFwd)
		}
	}
	return &q.out
}

// quantFC runs a FullyConnected layer on the int16 fast path. Its
// weights exist only in the pair-interleaved output-lane panels
// (tensor.PackFCIndexInt16), so a single input and a group of K both run
// tensor.FCForwardInt16, whose exact integer accumulation makes every
// row's result independent of K. Dequantization then writes output o
// of row i as acc · inScale · wScale[o] + bias[o].
type quantFC struct {
	name    string
	in, out int

	qmax    int32 // accumulator-safe clamp: AccQMax(in)
	inScale float32
	wScales []float32
	wPacked []int16 // int16 weights in output-lane panels, out × in
	bias    []float32

	qx  []int16 // quantized input rows, K × in
	y32 []int32 // int32 accumulators, K × out
	y   tensor.Tensor

	curK  int
	curY  []float32 // this pass's K × out outputs
	fnFwd func(lo, hi int)
}

func newQuantFC(l *FullyConnected, inRange float64) *quantFC {
	q := &quantFC{
		name: l.name, in: l.in, out: l.out,
		bias: l.bias.W.Data,
	}
	q.qmax = fixed.AccQMax(l.in)
	q.inScale = fixed.ScaleForQ(inRange, q.qmax)
	// Per-output-row weight scales; each row is quantized straight
	// into its slots of the packed panels, and chunks own disjoint
	// panels.
	w := l.weight.W.Data
	q.wScales = make([]float32, l.out)
	q.wPacked = make([]int16, tensor.PackFCSizeInt16(l.out, l.in))
	parallel.ForChunks(tensor.FCPanels(l.out), 1, func(lo, hi int) {
		for o := lo * tensor.FCPanelW; o < min(hi*tensor.FCPanelW, l.out); o++ {
			row := w[o*l.in : (o+1)*l.in]
			s := fixed.ScaleForQ(fixed.MaxAbs(row), q.qmax)
			q.wScales[o] = s
			for p, v := range row {
				q.wPacked[tensor.PackFCIndexInt16(l.in, o, p)] = fixed.QuantizeValueQ(v, s, q.qmax)
			}
		}
	})
	q.fnFwd = func(lo, hi int) {
		k := q.curK
		tensor.FCForwardInt16(q.y32, q.qx, q.wPacked, k, q.in, q.out, lo, hi)
		for i := 0; i < k; i++ {
			for o := lo * tensor.FCPanelW; o < min(hi*tensor.FCPanelW, q.out); o++ {
				q.curY[i*q.out+o] = float32(q.y32[i*q.out+o])*q.inScale*q.wScales[o] + q.bias[o]
			}
		}
	}
	return q
}

func (q *quantFC) Name() string { return q.name }

// forwardRows quantizes the K input rows of x and runs the packed
// int16 product, split over workers by output panels, into the K
// output rows.
func (q *quantFC) forwardRows(x *tensor.Tensor) *tensor.Tensor {
	k := x.Shape[0]
	if len(x.Data) != k*q.in {
		panic(fmt.Sprintf("nn: %s: batch of %d rows has %d inputs, want %d per row", q.name, k, len(x.Data), q.in))
	}
	setRows(&q.y, k, []int{q.out})
	q.qx = grow(q.qx, k*q.in)
	fixed.QuantizeScaledQ(q.qx, x.Data, q.inScale, q.qmax)
	q.y32 = grow(q.y32, k*q.out)
	q.curK, q.curY = k, q.y.Data
	parallel.ForChunks(tensor.FCPanels(q.out), 1, q.fnFwd)
	return &q.y
}

// QuantizeNetwork builds the int16 inference twin of a trained
// network. The calibration inputs are run through the *float* network
// once, observing the activation entering every conv/FC layer; each
// quantized layer gets a per-tensor input scale from its calibrator
// and per-output-channel weight scales from the weights themselves.
// Layers with no quantized implementation fall back to their float
// forward on a copy with buffers of its own (clone), so the twin and
// net may run concurrently. Dropout, a pass-through at inference that
// touches no buffer, is shared.
func QuantizeNetwork(net *Network, calib []*tensor.Tensor, cfg CalibConfig) *QuantNetwork {
	calibs := make([]*fixed.Calibrator, len(net.Layers))
	for i, l := range net.Layers {
		switch l.(type) {
		case *Conv2D, *FullyConnected:
			calibs[i] = fixed.NewCalibrator(cfg.Method, cfg.Percentile)
		}
	}
	for _, in := range calib {
		x := in
		for i, l := range net.Layers {
			if calibs[i] != nil {
				calibs[i].Observe(x.Data)
			}
			x = l.Forward(x, false)
		}
	}

	qn := &QuantNetwork{Name: net.Name + "-int16"}
	for i, l := range net.Layers {
		switch t := l.(type) {
		case *Conv2D:
			qn.layers = append(qn.layers, newQuantConv(t, calibs[i].Range()))
		case *FullyConnected:
			qn.layers = append(qn.layers, newQuantFC(t, calibs[i].Range()))
		default:
			if c, ok := l.(interface{ clone() Layer }); ok {
				l = c.clone()
			}
			qn.layers = append(qn.layers, floatFallback{l})
		}
	}
	return qn
}

// Forward runs quantized inference on one input, as a group of one
// row, and returns the class logits. The returned tensor is owned by
// the network and overwritten by the next call.
func (qn *QuantNetwork) Forward(in *tensor.Tensor) *tensor.Tensor {
	return dropRow(&qn.one.out, qn.forwardRows(addRow(&qn.one.in, in)))
}

// ForwardBatch runs quantized inference on a group of inputs and
// returns their logits as the rows of one [len(ins), classes] tensor,
// row i bit-identical to Forward(ins[i]). The returned tensor is owned
// by the network and overwritten by the next call.
func (qn *QuantNetwork) ForwardBatch(ins []*tensor.Tensor) *tensor.Tensor {
	return qn.forwardRows(gather(&qn.rows, ins))
}

func (qn *QuantNetwork) forwardRows(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range qn.layers {
		x = l.forwardRows(x)
	}
	return x
}

// Predict returns the argmax class for one example.
func (qn *QuantNetwork) Predict(in *tensor.Tensor) int {
	return argmax(qn.Forward(in).Data)
}

// Accuracy evaluates quantized classification accuracy, classifying
// groups of accuracyRows inputs as K rows.
func (qn *QuantNetwork) Accuracy(inputs []*tensor.Tensor, labels []int) float64 {
	return accuracy(qn.ForwardBatch, inputs, labels)
}

// Scales returns, for diagnostics, each quantized layer's name and
// input scale in layer order.
func (qn *QuantNetwork) Scales() map[string]float32 {
	m := make(map[string]float32)
	for _, l := range qn.layers {
		switch t := l.(type) {
		case *quantConv:
			m[t.name] = t.inScale
		case *quantFC:
			m[t.name] = t.inScale
		}
	}
	return m
}
