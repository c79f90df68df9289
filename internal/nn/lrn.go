package nn

import (
	"math"

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
// Like the other layers it owns its buffers: the output and the two
// denominator records are allocated at construction and the input
// gradient on the first Backward, so steady-state passes allocate
// nothing. The returned tensors are overwritten by the next call.
type LRN struct {
	name        string
	c, h, w     int
	inShape     []int
	size        int // window size n (channels)
	alpha, beta float64
	k           float64

	lastIn   *tensor.Tensor
	out      *tensor.Tensor
	gradIn   *tensor.Tensor
	denomPow []float32 // (k + α/n·Σx²)^β per element, from the last Forward
	denom    []float32 // (k + α/n·Σx²) per element, from the last Forward
}

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
	return &LRN{
		name: name, c: c, h: h, w: w, inShape: []int{c, h, w},
		size: size, alpha: alpha, beta: beta, k: k,
		out:      tensor.New(c, h, w),
		denomPow: make([]float32, c*h*w),
		denom:    make([]float32, c*h*w),
	}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// ShareClone implements ShareCloner: the replica carries the same
// normalization constants and owns its own buffers.
func (l *LRN) ShareClone() Layer {
	return NewLRN(l.name, l.c, l.h, l.w, l.size, l.alpha, l.beta, l.k)
}

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *LRN) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer. The returned tensor is owned by the layer
// and overwritten by the next Forward call.
func (l *LRN) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	mustShape(l.name, "input", in.Shape, l.inShape)
	out, denom, denomPow := l.out, l.denom, l.denomPow
	hw := l.h * l.w
	half := l.size / 2
	scale := l.alpha / float64(l.size)
	for p := 0; p < hw; p++ {
		for c := 0; c < l.c; c++ {
			sum := 0.0
			lo, hi := c-half, c+half
			if lo < 0 {
				lo = 0
			}
			if hi >= l.c {
				hi = l.c - 1
			}
			for cc := lo; cc <= hi; cc++ {
				v := float64(in.Data[cc*hw+p])
				sum += v * v
			}
			d := l.k + scale*sum
			dp := math.Pow(d, l.beta)
			idx := c*hw + p
			denom[idx] = float32(d)
			denomPow[idx] = float32(dp)
			out.Data[idx] = in.Data[idx] / float32(dp)
		}
	}
	if train {
		l.lastIn = in
	}
	return out
}

// Backward implements Layer. With d = k + α/n·Σx² and y_c = x_c·d_c^−β:
//
//	∂y_c/∂x_j = δ_cj·d_c^−β − 2αβ/n · x_c·x_j · d_c^−(β+1)   (j in window of c)
//
// It reads the denominators the last Forward recorded, so that Forward
// must be the Forward(train) being differentiated. The returned tensor
// is owned by the layer and overwritten by the next Backward call.
func (l *LRN) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastIn == nil {
		panic("nn: " + l.name + ": Backward before Forward(train)")
	}
	in := l.lastIn.Data
	if l.gradIn == nil {
		l.gradIn = tensor.New(l.c, l.h, l.w)
	}
	gradIn := l.gradIn
	hw := l.h * l.w
	half := l.size / 2
	coef := 2 * l.alpha * l.beta / float64(l.size)
	for p := 0; p < hw; p++ {
		for j := 0; j < l.c; j++ {
			idxJ := j*hw + p
			// Direct term.
			g := float64(gradOut.Data[idxJ]) / float64(l.denomPow[idxJ])
			// Cross terms: every c whose window contains j.
			lo, hi := j-half, j+half
			if lo < 0 {
				lo = 0
			}
			if hi >= l.c {
				hi = l.c - 1
			}
			for c := lo; c <= hi; c++ {
				idxC := c*hw + p
				dC := float64(l.denom[idxC])
				g -= coef * float64(gradOut.Data[idxC]) * float64(in[idxC]) * float64(in[idxJ]) /
					(float64(l.denomPow[idxC]) * dC)
			}
			gradIn.Data[idxJ] = float32(g)
		}
	}
	return gradIn
}
