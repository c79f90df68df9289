package nn

import (
	"math"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// LRN is AlexNet-style local response normalization across channels:
//
//	out[c] = in[c] / (k + α/n · Σ_{c'∈window(c)} in[c']²)^β
//
// Included for exact CaffeNet reproductions; the experiment specs in
// internal/netzoo omit it (standard practice in modern AlexNet
// re-implementations — it changes accuracy by well under a point and
// carries no weights, so it never affects partitioning or traffic).
//
// A group of K samples normalizes as K·C channels, split over workers
// by whole channels in both directions; each element's arithmetic is
// the same in any split. Like the other layers it owns its buffers,
// sized by the largest group it has run, so steady-state passes
// allocate nothing; the denominator records are kept only by a
// training forward, and the input gradient only by a backward. The
// returned tensors are overwritten by the next call.
type LRN struct {
	name        string
	c, h, w     int
	inShape     []int
	size        int // window size n (channels)
	alpha, beta float64
	k           float64
	grain       int // channels per parallel chunk

	lastIn   *tensor.Tensor
	out      tensor.Tensor
	gradIn   tensor.Tensor
	denomPow []float32 // (k + α/n·Σx²)^β per element, from the last Forward(train)
	denom    []float32 // (k + α/n·Σx²) per element, from the last Forward(train)
	one      oneRow

	// operands of the current pass, read by the prebuilt bodies;
	// curDenom is nil in an inference forward
	curIn, curGo        []float32
	curDenom, curDenPow []float32
	fnFwd, fnBwd        func(lo, hi int)
}

// lrnChunkOutputs is the element count a parallel LRN chunk aims for;
// chunks hold whole channels.
const lrnChunkOutputs = 4096

// NewLRN creates a normalization layer with AlexNet's standard
// parameters when alpha/beta are zero (n=5, α=1e-4, β=0.75, k=2).
func NewLRN(name string, c, h, w, size int, alpha, beta, k float64) *LRN {
	if size <= 0 {
		size = 5
	}
	if alpha == 0 {
		alpha = 1e-4
	}
	if beta == 0 {
		beta = 0.75
	}
	if k == 0 {
		k = 2
	}
	l := &LRN{
		name: name, c: c, h: h, w: w, inShape: []int{c, h, w},
		size: size, alpha: alpha, beta: beta, k: k,
		grain: max(1, lrnChunkOutputs/(h*w)),
	}
	l.fnFwd, l.fnBwd = l.forwardChannels, l.backwardChannels
	return l
}

// clone returns a layer of the same configuration with buffers of its
// own, for a quantized twin's float fallback.
func (l *LRN) clone() Layer {
	return NewLRN(l.name, l.c, l.h, l.w, l.size, l.alpha, l.beta, l.k)
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LRN) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	return l.one.forward(l, in, train)
}

func (l *LRN) forwardRows(x *tensor.Tensor, train bool) *tensor.Tensor {
	k := checkRows(l.name, "input", x, l.inShape)
	setRows(&l.out, k, l.inShape)
	l.curIn, l.curDenom, l.curDenPow = x.Data, nil, nil
	if train {
		l.lastIn = x
		l.denom = grow(l.denom, len(x.Data))
		l.denomPow = grow(l.denomPow, len(x.Data))
		l.curDenom, l.curDenPow = l.denom, l.denomPow
	}
	parallel.ForChunks(k*l.c, l.grain, l.fnFwd)
	return &l.out
}

// forwardChannels normalizes channels [lo, hi) of the group's K·C,
// recording the denominators when curDenom is set.
func (l *LRN) forwardChannels(lo, hi int) {
	in, out := l.curIn, l.out.Data
	hw := l.h * l.w
	half := l.size / 2
	scale := l.alpha / float64(l.size)
	for i := lo; i < hi; i++ {
		base, c := (i/l.c)*l.c*hw, i%l.c
		wlo, whi := max(c-half, 0), min(c+half, l.c-1)
		for p := 0; p < hw; p++ {
			sum := 0.0
			for cc := wlo; cc <= whi; cc++ {
				v := float64(in[base+cc*hw+p])
				sum += v * v
			}
			d := l.k + scale*sum
			dp := math.Pow(d, l.beta)
			idx := base + c*hw + p
			if l.curDenom != nil {
				l.curDenom[idx] = float32(d)
				l.curDenPow[idx] = float32(dp)
			}
			out[idx] = in[idx] / float32(dp)
		}
	}
}

// backwardRows differentiates the last Forward(train). With
// d = k + α/n·Σx² and y_c = x_c·d_c^−β:
//
//	∂y_c/∂x_j = δ_cj·d_c^−β − 2αβ/n · x_c·x_j · d_c^−(β+1)   (j in window of c)
func (l *LRN) backwardRows(gradOut *tensor.Tensor, _ bool) *tensor.Tensor {
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	k := checkRows(l.name, "gradOut", gradOut, l.inShape)
	setRows(&l.gradIn, k, l.inShape)
	l.curGo = gradOut.Data
	parallel.ForChunks(k*l.c, l.grain, l.fnBwd)
	return &l.gradIn
}

// backwardChannels writes the input gradient of channels [lo, hi) of
// the group's K·C.
func (l *LRN) backwardChannels(lo, hi int) {
	in, gradOut, gradIn := l.lastIn.Data, l.curGo, l.gradIn.Data
	hw := l.h * l.w
	half := l.size / 2
	coef := 2 * l.alpha * l.beta / float64(l.size)
	for i := lo; i < hi; i++ {
		base, j := (i/l.c)*l.c*hw, i%l.c
		wlo, whi := max(j-half, 0), min(j+half, l.c-1)
		for p := 0; p < hw; p++ {
			idxJ := base + j*hw + p
			// Direct term.
			g := float64(gradOut[idxJ]) / float64(l.denomPow[idxJ])
			// Cross terms: every c whose window contains j.
			for c := wlo; c <= whi; c++ {
				idxC := base + c*hw + p
				dC := float64(l.denom[idxC])
				g -= coef * float64(gradOut[idxC]) * float64(in[idxC]) * float64(in[idxJ]) /
					(float64(l.denomPow[idxC]) * dC)
			}
			gradIn[idxJ] = float32(g)
		}
	}
}
