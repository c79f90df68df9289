// Package tensor provides the dense float32 tensor type and the handful
// of numeric kernels (matmul, im2col, convolution, pooling) that the
// neural-network training stack in internal/nn is built on.
//
// Layout convention: feature-map tensors are CHW (channel, height,
// width) for a single example; weight tensors for convolutions are
// OIHW (output channel, input channel, kernel height, kernel width);
// fully-connected weights are (out, in) row-major matrices.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float32 tensor with an explicit shape. Data is
// stored row-major with the last dimension contiguous.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is not
// copied. It panics if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	if v == 0 {
		clear(t.Data)
		return
	}
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Reshape returns a view of the same data with a new shape. It panics
// if the element count changes.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index (bounds-checked via
// the underlying slice). Only used in tests and reference kernels.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// RandN fills the tensor with Gaussian noise of the given standard
// deviation drawn from rng.
func (t *Tensor) RandN(rng *rand.Rand, stddev float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * stddev)
	}
}

// AXPY computes t += alpha * x elementwise. Panics on length mismatch.
func (t *Tensor) AXPY(alpha float32, x *Tensor) {
	if len(t.Data) != len(x.Data) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range x.Data {
		t.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Dot returns the flat dot product of two tensors of equal length.
func Dot(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// Norm2 returns the L2 norm of the tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ConvGeom describes the geometry of a 2D convolution or pooling.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial size
	OutC          int // output channels (ignored by pooling)
	KH, KW        int // kernel size
	Stride, Pad   int
	OutH, OutW    int // derived; call Infer to fill
}

// Infer computes OutH/OutW from the other fields and returns the geometry.
func (g ConvGeom) Infer() ConvGeom {
	g.OutH = (g.InH+2*g.Pad-g.KH)/g.Stride + 1
	g.OutW = (g.InW+2*g.Pad-g.KW)/g.Stride + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		panic(fmt.Sprintf("tensor: convolution geometry %+v has non-positive output", g))
	}
	return g
}

// Im2Col expands input (CHW) into a patch matrix of shape
// (InC·KH·KW) × (OutH·OutW), so that convolution becomes a matmul with
// the OIHW weight matrix reshaped to OutC × (InC·KH·KW).
// col must have length (InC·KH·KW)·(OutH·OutW).
func Im2Col(col, input []float32, g ConvGeom) { im2col(col, input, g) }

// Im2ColInt16 is Im2Col over int16 data: the same patch expansion for
// the quantized convolution path, where the input has already been
// quantized to int16 and feeds the integer GEMM. Padding becomes
// quantized zero (symmetric quantization maps 0.0 to 0 exactly).
func Im2ColInt16(col, input []int16, g ConvGeom) { im2col(col, input, g) }

// im2col is the shared element-type-generic patch expansion.
func im2col[T float32 | int16](col, input []T, g ConvGeom) {
	rows := g.InC * g.KH * g.KW
	cols := g.OutH * g.OutW
	if len(col) != rows*cols {
		panic("tensor: Im2Col output size mismatch")
	}
	if len(input) != g.InC*g.InH*g.InW {
		panic("tensor: Im2Col input size mismatch")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				dst := col[row*cols : (row+1)*cols]
				di := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						clear(dst[di : di+g.OutW])
						di += g.OutW
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw < 0 || iw >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = input[rowBase+iw]
						}
						di++
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) the patch
// matrix back into an input-shaped gradient buffer. input is NOT zeroed
// first; callers zero it when appropriate.
func Col2Im(input, col []float32, g ConvGeom) {
	rows := g.InC * g.KH * g.KW
	cols := g.OutH * g.OutW
	if len(col) != rows*cols {
		panic("tensor: Col2Im col size mismatch")
	}
	if len(input) != g.InC*g.InH*g.InW {
		panic("tensor: Col2Im input size mismatch")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				src := col[row*cols : (row+1)*cols]
				si := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						si += g.OutW
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw >= 0 && iw < g.InW {
							input[rowBase+iw] += src[si]
						}
						si++
					}
				}
			}
		}
	}
}

// ConvRef is a direct (non-im2col) reference convolution used to verify
// the fast path in tests. input is CHW, weights OIHW, bias length OutC,
// output CHW (OutC×OutH×OutW), overwritten.
func ConvRef(output, input, weights, bias []float32, g ConvGeom) {
	for oc := 0; oc < g.OutC; oc++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				s := bias[oc]
				for ic := 0; ic < g.InC; ic++ {
					for kh := 0; kh < g.KH; kh++ {
						ih := oh*g.Stride - g.Pad + kh
						if ih < 0 || ih >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							iw := ow*g.Stride - g.Pad + kw
							if iw < 0 || iw >= g.InW {
								continue
							}
							w := weights[((oc*g.InC+ic)*g.KH+kh)*g.KW+kw]
							s += w * input[(ic*g.InH+ih)*g.InW+iw]
						}
					}
				}
				output[(oc*g.OutH+oh)*g.OutW+ow] = s
			}
		}
	}
}

// MaxPool computes channelwise max pooling. input is CHW with C
// channels, output is C×OutH×OutW. argmax (same length as output, may
// be nil) records the flat input index of each selected maximum for use
// in the backward pass.
//
// Each window keeps its first strict maximum in row-major tap order: a
// NaN never wins, a tie keeps the earlier tap (so −0 before +0 gives
// −0), and a window with no value above −Inf gives −Inf with argmax −1.
// This is the scalar reference loop; MaxPoolChannels computes the same
// bytes faster.
func MaxPool(output []float32, argmax []int32, input []float32, g ConvGeom) {
	for c := 0; c < g.InC; c++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				maxPoolWindow(output, argmax, input, g, c, oh, ow)
			}
		}
	}
}

// maxPoolWindow pools one window with bounds checks on every tap.
func maxPoolWindow(output []float32, argmax []int32, input []float32, g ConvGeom, c, oh, ow int) {
	best := float32(math.Inf(-1))
	bestIdx := int32(-1)
	for kh := 0; kh < g.KH; kh++ {
		ih := oh*g.Stride - g.Pad + kh
		if ih < 0 || ih >= g.InH {
			continue
		}
		for kw := 0; kw < g.KW; kw++ {
			iw := ow*g.Stride - g.Pad + kw
			if iw < 0 || iw >= g.InW {
				continue
			}
			idx := int32((c*g.InH+ih)*g.InW + iw)
			if v := input[idx]; v > best {
				best = v
				bestIdx = idx
			}
		}
	}
	oi := (c*g.OutH+oh)*g.OutW + ow
	output[oi] = best
	if argmax != nil {
		argmax[oi] = bestIdx
	}
}

// MaxPoolChannels pools channels [lo, hi) of input, writing exactly
// the output (and argmax, when non-nil) bytes MaxPool writes for them.
// Channels are disjoint in output and argmax, so a channel range is
// safe to split across workers.
//
// Windows that lie wholly inside the input compare integer order keys
// (poolKey) instead of floats, so the running maximum and its index
// update without a branch and with no bounds test per tap; windows
// that touch the border or the padding take MaxPool's scalar loop.
func MaxPoolChannels(output []float32, argmax []int32, input []float32, g ConvGeom, lo, hi int) {
	if len(input) != g.InC*g.InH*g.InW || len(output) != g.InC*g.OutH*g.OutW ||
		(argmax != nil && len(argmax) != len(output)) {
		panic("tensor: MaxPoolChannels size mismatch")
	}
	if lo < 0 || hi > g.InC || lo > hi {
		panic("tensor: MaxPoolChannels channel range out of bounds")
	}
	// Interior output rows [ohLo, ohHi) and columns [owLo, owHi): every
	// tap of their windows is inside the input.
	ohLo, ohHi := interiorRange(g.OutH, g.InH, g.KH, g.Stride, g.Pad)
	owLo, owHi := interiorRange(g.OutW, g.InW, g.KW, g.Stride, g.Pad)
	for c := lo; c < hi; c++ {
		for oh := 0; oh < g.OutH; oh++ {
			if oh < ohLo || oh >= ohHi {
				for ow := 0; ow < g.OutW; ow++ {
					maxPoolWindow(output, argmax, input, g, c, oh, ow)
				}
				continue
			}
			for ow := 0; ow < owLo; ow++ {
				maxPoolWindow(output, argmax, input, g, c, oh, ow)
			}
			maxPoolInterior(output, argmax, input, g, c, oh, owLo, owHi)
			for ow := owHi; ow < g.OutW; ow++ {
				maxPoolWindow(output, argmax, input, g, c, oh, ow)
			}
		}
	}
}

// maxPoolInterior pools windows [owLo, owHi) of output row oh of
// channel c, all wholly inside the input.
func maxPoolInterior(output []float32, argmax []int32, input []float32, g ConvGeom, c, oh, owLo, owHi int) {
	row := (c*g.OutH + oh) * g.OutW
	origin := (c*g.InH+oh*g.Stride-g.Pad)*g.InW - g.Pad // window (oh, 0)'s first tap
	for ow := owLo; ow < owHi; ow++ {
		first := origin + ow*g.Stride
		idx := -1
		if off := windowKeyMax(input[first:], g.KH, g.KW, g.InW); off >= 0 {
			idx = first + off
			if v := input[idx]; v != v {
				// A positive NaN won: pool the window by float compare.
				maxPoolWindow(output, argmax, input, g, c, oh, ow)
				continue
			}
		}
		if idx >= 0 {
			output[row+ow] = input[idx]
		} else {
			output[row+ow] = float32(math.Inf(-1))
		}
		if argmax != nil {
			argmax[row+ow] = int32(idx)
		}
	}
}

// windowKeyMax returns the offset in win of the tap of its kh×kw
// window (row stride inW) that MaxPool selects, or −1 when no tap's
// key exceeds poolKey(−Inf).
//
// Each tap folds into one running max of the int64
// poolKey(v)<<31 | (span−off), span = kh·inW: the larger key wins, and
// among equal keys the smaller offset, which in row-major tap order is
// MaxPool's first strict maximum. The running value starts at
// poolKey(−Inf) with a low word above every tap's, so a window with no
// key above −Inf's keeps it. The max is taken with a sign mask, not a
// branch: the compiler emits no conditional move for a loop-carried
// select, and a branch on pooled data is a coin toss. The 31-bit shift
// keeps every difference of two running values inside int64.
//
// poolKey puts a positive NaN above +Inf, where it wins; the caller
// pools such a window again by float compare.
func windowKeyMax(win []float32, kh, kw, inW int) int {
	span := int64(kh * inW)
	none := int64(poolKeyNegInf)<<31 | (span + 1)
	best := none
	for y := 0; y < kh; y++ {
		low := span - int64(y*inW)
		for _, v := range win[y*inW : y*inW+kw] {
			c := int64(poolKey(v))<<31 | low
			best ^= (best ^ c) & ((best - c) >> 63)
			low--
		}
	}
	if best == none {
		return -1
	}
	return int(span - best&(1<<31-1))
}

// interiorRange returns the output positions [lo, hi) along one axis
// whose k taps all lie in [0, in).
func interiorRange(out, in, k, stride, pad int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, out)
	if in-k+pad >= 0 {
		hi = min((in-k+pad)/stride+1, out)
	}
	return lo, max(hi, lo)
}

// poolKeyNegInf is poolKey(−Inf).
const poolKeyNegInf = -0x7f800000

// poolKey maps a float32 to an int32 whose order is the float order on
// non-NaN values with −0 and +0 equal: sign-magnitude bits to two's
// complement. Negative NaNs land below poolKey(−Inf), positive NaNs
// above poolKey(+Inf).
func poolKey(v float32) int32 {
	b := int32(math.Float32bits(v))
	s := b >> 31
	return (b&math.MaxInt32 ^ s) - s
}
