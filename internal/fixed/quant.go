// Package fixed holds the 16-bit number format of the Diannao-class
// accelerator cores modelled in this repository (see internal/nna): the
// inference Precision selector, the symmetric scaled int16 quantizer
// with its max-abs and percentile calibrators, and AccQMax, the operand
// bound that keeps an int16 dot product inside an int32 accumulator.
// nn.QuantNetwork builds the int16 inference datapath on top of it.
package fixed

import (
	"fmt"
	"math"
	"sort"
)

// Precision selects the arithmetic of the inference fast path: float32
// (the training datapath) or scaled-int16 (the quantized path matching
// the modelled accelerator's 16-bit MAC arrays).
type Precision int

const (
	// Float32 is the default full-precision inference path.
	Float32 Precision = iota
	// Int16 is the scaled 16-bit quantized path: int16 operands, int32
	// accumulation, per-tensor activation and per-channel weight scales.
	Int16
)

func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	case Int16:
		return "int16"
	}
	return "unknown"
}

// ParsePrecision parses a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "float32", "fp32", "float":
		return Float32, nil
	case "int16", "i16", "quantized":
		return Int16, nil
	}
	return Float32, fmt.Errorf("unknown precision %q (want float32 or int16)", s)
}

// Scaled linear quantization.
//
// A format with a hard-coded binary point wastes most of its bits on
// real networks, whose dynamic ranges differ per layer. Quantization
// here is symmetric and scaled: a tensor is represented as
// q[i] ≈ x[i]/scale with q ∈ [-QMax, QMax], where the scale is chosen
// per tensor (activations) or per output channel (conv/FC weights) by a
// calibration pass.
//
// Rounding convention: QuantizeValueQ rounds half to even
// (math.RoundToEven), the IEEE default, so the quantizer is unbiased
// over symmetric inputs; it is the only rounding step on the 16-bit
// datapath (DESIGN.md §10). The negative extreme -32768 is excluded
// from the quantized range so that |q| ≤ QMax always holds and
// negation cannot overflow.

// QMax is the symmetric int16 quantization bound. The asymmetric
// extreme -32768 is never produced.
const QMax = 32767

// CalibMethod selects how a calibration pass turns observed activation
// values into a scale.
type CalibMethod int

const (
	// CalibMaxAbs uses the largest observed |x|: no saturation on the
	// calibration set, resolution spent on outliers.
	CalibMaxAbs CalibMethod = iota
	// CalibPercentile uses the given percentile of observed |x|
	// (e.g. 99.9): outliers saturate, the bulk of the distribution gets
	// finer resolution.
	CalibPercentile
)

func (m CalibMethod) String() string {
	switch m {
	case CalibMaxAbs:
		return "maxabs"
	case CalibPercentile:
		return "percentile"
	}
	return "unknown"
}

// AccQMax returns the largest symmetric quantized magnitude whose
// worst-case k-term dot product still fits an int32 accumulator:
// the biggest q ≤ QMax with k·q² ≤ 2³¹−1. Layers quantize operands to
// ±AccQMax(k) of their reduction depth so the packed int16 GEMM's
// int32 accumulators provably never wrap — the dynamic-fixed-point
// headroom trick of Cappuccino-style mobile inference engines. Depth 1
// (or anything ≤ 2) keeps the full ±32767 range; AlexNet's conv2
// (k = 2400) gets ±945, still ~10 effective bits per operand.
func AccQMax(k int) int32 {
	if k < 1 {
		k = 1
	}
	q := int32(math.Sqrt(float64(math.MaxInt32) / float64(k)))
	for int64(k)*int64(q)*int64(q) > math.MaxInt32 { // guard fp rounding
		q--
	}
	if q > QMax {
		q = QMax
	}
	if q < 1 {
		q = 1
	}
	return q
}

// ScaleForQ returns the symmetric quantization scale mapping
// [-maxAbs, maxAbs] onto [-qmax, qmax]. A degenerate (zero, negative,
// NaN or Inf) range yields scale 1 so that all-zero tensors quantize
// to all zeros rather than dividing by zero.
func ScaleForQ(maxAbs float64, qmax int32) float32 {
	if !(maxAbs > 0) || math.IsInf(maxAbs, 0) {
		return 1
	}
	return float32(maxAbs / float64(qmax))
}

// QuantizeValueQ quantizes one value with an explicit clamp bound
// (±qmax), used by the accumulator-safe layer quantizers.
func QuantizeValueQ(x float32, scale float32, qmax int32) int16 {
	q := math.RoundToEven(float64(x) / float64(scale))
	switch {
	case q > float64(qmax):
		return int16(qmax)
	case q < -float64(qmax):
		return int16(-qmax)
	case math.IsNaN(q):
		return 0
	}
	return int16(q)
}

// QuantizeScaledQ quantizes src into dst with an explicit clamp bound.
func QuantizeScaledQ(dst []int16, src []float32, scale float32, qmax int32) {
	if len(dst) != len(src) {
		panic("fixed: QuantizeScaledQ length mismatch")
	}
	for i, x := range src {
		dst[i] = QuantizeValueQ(x, scale, qmax)
	}
}

// MaxAbs returns the largest |x| over src, ignoring NaNs. Returns 0 for
// an empty or all-NaN slice.
func MaxAbs(src []float32) float64 {
	m := 0.0
	for _, x := range src {
		a := math.Abs(float64(x))
		if a > m { // NaN compares false, so NaNs are skipped
			m = a
		}
	}
	return m
}

// Calibrator accumulates the absolute values of activations observed
// during a calibration pass and turns them into a per-tensor scale.
// Observations are kept exactly (the calibration sets in this repo are
// small); Scale is deterministic for a given observation sequence.
type Calibrator struct {
	Method     CalibMethod
	Percentile float64 // e.g. 99.9; only used by CalibPercentile

	maxAbs float64
	abs    []float64 // retained only for CalibPercentile
}

// NewCalibrator returns a calibrator for the given method. percentile
// is ignored for CalibMaxAbs; for CalibPercentile values outside
// (0, 100] fall back to 100 (= max-abs).
func NewCalibrator(method CalibMethod, percentile float64) *Calibrator {
	if method == CalibPercentile && !(percentile > 0 && percentile <= 100) {
		percentile = 100
	}
	return &Calibrator{Method: method, Percentile: percentile}
}

// Observe folds one activation tensor into the calibration statistics.
func (c *Calibrator) Observe(xs []float32) {
	for _, x := range xs {
		a := math.Abs(float64(x))
		if math.IsNaN(a) {
			continue
		}
		if a > c.maxAbs {
			c.maxAbs = a
		}
		if c.Method == CalibPercentile {
			c.abs = append(c.abs, a)
		}
	}
}

// Range returns the calibrated max-abs estimate: the observed maximum
// for CalibMaxAbs, the configured percentile of observed |x| for
// CalibPercentile. Zero when nothing was observed.
func (c *Calibrator) Range() float64 {
	if c.Method != CalibPercentile || len(c.abs) == 0 {
		return c.maxAbs
	}
	sorted := make([]float64, len(c.abs))
	copy(sorted, c.abs)
	sort.Float64s(sorted)
	// Nearest-rank percentile: the smallest value covering p% of the
	// observations. p=100 degenerates to the maximum.
	rank := int(math.Ceil(c.Percentile / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
