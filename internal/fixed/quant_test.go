package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dequantize is the inverse the round-trip tests measure the quantizer
// against: dst[i] = scale · src[i].
func dequantize(dst []float32, src []int16, scale float32) {
	for i, q := range src {
		dst[i] = scale * float32(q)
	}
}

// TestQuantRoundTripBound pins the core quantizer property: for any x
// inside the calibrated range, |x − deq(q(x))| ≤ scale/2.
func TestQuantRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		maxAbs := math.Exp(rng.Float64()*12 - 6) // ranges from ~2.5e-3 to ~400
		scale := ScaleForQ(maxAbs, QMax)
		xs := make([]float32, 257)
		for i := range xs {
			xs[i] = float32((rng.Float64()*2 - 1) * maxAbs)
		}
		xs[0], xs[1], xs[2] = 0, float32(maxAbs), float32(-maxAbs)
		qs := make([]int16, len(xs))
		back := make([]float32, len(xs))
		QuantizeScaledQ(qs, xs, scale, QMax)
		dequantize(back, qs, scale)
		for i, x := range xs {
			err := math.Abs(float64(x) - float64(back[i]))
			// Half a quantization step, plus float32 slack on the
			// dequantize multiply (an ulp of the value, not the step).
			bound := float64(scale)/2 + math.Abs(float64(x))*1e-6 + float64(scale)*1e-5
			if err > bound {
				t.Fatalf("trial %d: x=%g deq=%g err=%g > scale/2=%g",
					trial, x, back[i], err, bound)
			}
		}
	}
}

// TestQuantSaturation pins clamping at the range edges: values beyond
// the calibrated range quantize to exactly ±QMax, and the asymmetric
// extreme -32768 is never produced.
func TestQuantSaturation(t *testing.T) {
	scale := ScaleForQ(4.0, QMax)
	cases := []struct {
		x    float32
		want int16
	}{
		{4.0, QMax},
		{-4.0, -QMax},
		{400.0, QMax},
		{-400.0, -QMax},
		{float32(math.Inf(1)), QMax},
		{float32(math.Inf(-1)), -QMax},
		{float32(math.NaN()), 0},
	}
	for _, c := range cases {
		if got := QuantizeValueQ(c.x, scale, QMax); got != c.want {
			t.Errorf("QuantizeValueQ(%g, %g, QMax) = %d, want %d", c.x, scale, got, c.want)
		}
	}
	qs := make([]int16, 4096)
	xs := make([]float32, len(qs))
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = float32((rng.Float64()*2 - 1) * 1e6)
	}
	QuantizeScaledQ(qs, xs, scale, QMax)
	for i, q := range qs {
		if q == math.MinInt16 {
			t.Fatalf("element %d quantized to -32768; range must be symmetric", i)
		}
	}
}

// TestQuantRoundHalfEven pins the datapath's one rounding convention
// (see DESIGN.md §10).
func TestQuantRoundHalfEven(t *testing.T) {
	cases := []struct {
		x    float32
		want int16
	}{
		{0.5, 0}, {1.5, 2}, {2.5, 2}, {3.5, 4},
		{-0.5, 0}, {-1.5, -2}, {-2.5, -2},
	}
	for _, c := range cases {
		if got := QuantizeValueQ(c.x, 1, QMax); got != c.want {
			t.Errorf("QuantizeValueQ(%g, 1, QMax) = %d, want %d (round half to even)", c.x, got, c.want)
		}
	}
}

// TestChannelScalesMonotone pins per-channel vs per-tensor
// monotonicity: every channel's scale is ≤ the per-tensor scale, so the
// per-channel round-trip error bound is pointwise no worse — and on a
// matrix with wildly different channel ranges, strictly better.
func TestChannelScalesMonotone(t *testing.T) {
	const channels, perChan = 8, 64
	rng := rand.New(rand.NewSource(3))
	w := make([]float32, channels*perChan)
	for c := 0; c < channels; c++ {
		// Channel ranges spanning four orders of magnitude.
		chanRange := math.Pow(10, float64(c)/2-2)
		for i := 0; i < perChan; i++ {
			w[c*perChan+i] = float32((rng.Float64()*2 - 1) * chanRange)
		}
	}
	tensorScale := ScaleForQ(MaxAbs(w), QMax)
	chanScales := make([]float32, channels)
	for c := range chanScales {
		chanScales[c] = ScaleForQ(MaxAbs(w[c*perChan:(c+1)*perChan]), QMax)
	}

	maxErr := func(src []float32, scale float32) float64 {
		qs := make([]int16, len(src))
		back := make([]float32, len(src))
		QuantizeScaledQ(qs, src, scale, QMax)
		dequantize(back, qs, scale)
		m := 0.0
		for i := range src {
			if e := math.Abs(float64(src[i]) - float64(back[i])); e > m {
				m = e
			}
		}
		return m
	}

	better := 0
	for c := 0; c < channels; c++ {
		if chanScales[c] > tensorScale {
			t.Fatalf("channel %d scale %g > per-tensor scale %g", c, chanScales[c], tensorScale)
		}
		row := w[c*perChan : (c+1)*perChan]
		perChanErr := maxErr(row, chanScales[c])
		perTensorErr := maxErr(row, tensorScale)
		if bound := float64(chanScales[c])/2 + float64(chanScales[c])*1e-5; perChanErr > bound {
			t.Errorf("channel %d: per-channel err %g > bound %g", c, perChanErr, bound)
		}
		if perChanErr < perTensorErr {
			better++
		}
	}
	// The small-magnitude channels must concretely benefit from their
	// own scale, not just tie the bound.
	if better < channels/2 {
		t.Errorf("per-channel error beat per-tensor on only %d/%d channels", better, channels)
	}
}

func TestCalibrators(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float32, 10000)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
	}
	xs[0] = 100 // one outlier

	ma := NewCalibrator(CalibMaxAbs, 0)
	p999 := NewCalibrator(CalibPercentile, 99.9)
	p100 := NewCalibrator(CalibPercentile, 100)
	for _, c := range []*Calibrator{ma, p999, p100} {
		c.Observe(xs[:5000])
		c.Observe(xs[5000:])
	}

	if got := ma.Range(); got != 100 {
		t.Errorf("maxabs range = %g, want 100 (the outlier)", got)
	}
	if got := p100.Range(); got != ma.Range() {
		t.Errorf("percentile-100 range %g != maxabs range %g", got, ma.Range())
	}
	if got := p999.Range(); !(got > 2 && got < 10) {
		t.Errorf("percentile-99.9 range = %g, want the gaussian tail (2..10), not the outlier", got)
	}
	// Max-abs calibration never saturates the calibration set.
	scale := ScaleForQ(ma.Range(), QMax)
	for _, x := range xs {
		q := QuantizeValueQ(x, scale, QMax)
		if q == QMax || q == -QMax {
			if math.Abs(float64(x)) < ma.Range() {
				t.Fatalf("x=%g saturated under maxabs scale", x)
			}
		}
	}
	// Percentile calibration clips the outlier.
	if q := QuantizeValueQ(100, ScaleForQ(p999.Range(), QMax), QMax); q != QMax {
		t.Errorf("outlier quantized to %d under percentile scale, want saturation at %d", q, QMax)
	}
}

func TestScaleForDegenerate(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := ScaleForQ(v, QMax); got != 1 {
			t.Errorf("ScaleForQ(%g, QMax) = %g, want 1", v, got)
		}
	}
	// All-zero tensors round-trip exactly.
	zs := make([]float32, 8)
	qs := make([]int16, 8)
	QuantizeScaledQ(qs, zs, ScaleForQ(MaxAbs(zs), QMax), QMax)
	for _, q := range qs {
		if q != 0 {
			t.Fatal("zero tensor did not quantize to zeros")
		}
	}
}

func TestCalibratorPercentileFallback(t *testing.T) {
	c := NewCalibrator(CalibPercentile, -5)
	if c.Percentile != 100 {
		t.Errorf("invalid percentile fell back to %g, want 100", c.Percentile)
	}
	if got, want := CalibMaxAbs.String(), "maxabs"; got != want {
		t.Errorf("CalibMaxAbs.String() = %q, want %q", got, want)
	}
	if got, want := CalibPercentile.String(), "percentile"; got != want {
		t.Errorf("CalibPercentile.String() = %q, want %q", got, want)
	}
}

func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"float32": Float32, "fp32": Float32, "float": Float32,
		"int16": Int16, "i16": Int16, "quantized": Int16,
	}
	for s, want := range cases {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, p := range []Precision{Float32, Int16} {
		if got, err := ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("ParsePrecision(%v.String()) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePrecision("int8"); err == nil {
		t.Error("ParsePrecision accepted int8")
	}
	if got := Precision(9).String(); got != "unknown" {
		t.Errorf("Precision(9).String() = %q, want unknown", got)
	}
}

// TestAccQMax pins the accumulator headroom bound: AccQMax(k) is the
// largest q ≤ QMax whose worst-case k-term dot product fits an int32.
func TestAccQMax(t *testing.T) {
	for _, k := range []int{-3, 0, 1, 2, 3, 9, 363, 2400, 1 << 20, 1 << 30} {
		q := AccQMax(k)
		kk := int64(k)
		if kk < 1 {
			kk = 1
		}
		switch {
		case q < 1 || q > QMax:
			t.Errorf("AccQMax(%d) = %d outside [1, %d]", k, q, QMax)
		case q > 1 && kk*int64(q)*int64(q) > math.MaxInt32:
			t.Errorf("AccQMax(%d) = %d: %d-term dot product overflows int32", k, q, kk)
		case q < QMax && kk*int64(q+1)*int64(q+1) <= math.MaxInt32:
			t.Errorf("AccQMax(%d) = %d is not the largest safe bound", k, q)
		}
		// An operand at the calibrated extreme maps onto the bound.
		if got := QuantizeValueQ(3, ScaleForQ(3, q), q); int32(got) != q {
			t.Errorf("k=%d: extreme quantized to %d, want %d", k, got, q)
		}
	}
	if got := AccQMax(2400); got != 945 {
		t.Errorf("AccQMax(2400) = %d, want 945 (AlexNet conv2)", got)
	}
	if got := ScaleForQ(0, 7); got != 1 {
		t.Errorf("ScaleForQ(0, 7) = %g, want 1", got)
	}
}

func TestQuantizeLengthMismatchPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on a length mismatch", name)
			}
		}()
		f()
	}
	expectPanic("QuantizeScaledQ", func() { QuantizeScaledQ(make([]int16, 2), make([]float32, 3), 1, QMax) })
}

// q78 is the power-of-two scale 2⁻⁸: with it the scaled quantizer is a
// fixed binary-point conversion with 8 fraction bits, so values on that
// grid must convert exactly.
const q78 = float32(1.0 / 256)

func TestFromFloatExactValues(t *testing.T) {
	cases := []struct {
		x    float32
		want int16
	}{
		{0, 0},
		{1, 256},
		{-1, -256},
		{0.5, 128},
		{-0.5, -128},
		{127, 127 * 256},
		{1.0 / 256, 1}, // the resolution
	}
	for _, c := range cases {
		if got := QuantizeValueQ(c.x, q78, QMax); got != c.want {
			t.Errorf("QuantizeValueQ(%v, 2^-8, QMax) = %d, want %d", c.x, got, c.want)
		}
		back := make([]float32, 1)
		dequantize(back, []int16{c.want}, q78)
		if back[0] != c.x {
			t.Errorf("dequantize(%d, 2^-8) = %v, want %v exactly", c.want, back[0], c.x)
		}
	}
}

// TestFromFloatSaturates pins clamping on the 2⁻⁸ grid and under an
// accumulator-safe bound: out-of-range values land on ±qmax exactly.
func TestFromFloatSaturates(t *testing.T) {
	cases := []struct {
		x    float32
		qmax int32
		want int16
	}{
		{1e9, QMax, QMax},
		{-1e9, QMax, -QMax},
		{128, QMax, QMax}, // 128·256 = 32768 is one past the bound
		{-128, QMax, -QMax},
		{1e9, 945, 945},
		{-1e9, 945, -945},
		{945.0 / 256, 945, 945}, // the bound itself is not clipped
	}
	for _, c := range cases {
		if got := QuantizeValueQ(c.x, q78, c.qmax); got != c.want {
			t.Errorf("QuantizeValueQ(%v, 2^-8, %d) = %d, want %d", c.x, c.qmax, got, c.want)
		}
	}
}

// TestRoundTripResolution pins the round trip on the 2⁻⁸ grid:
// arbitrary in-range values come back within half a step (2⁻⁹).
func TestRoundTripResolution(t *testing.T) {
	xs := []float32{0.1, -0.1, 3.14159, -2.71828, 100.125}
	qs := make([]int16, len(xs))
	back := make([]float32, len(xs))
	QuantizeScaledQ(qs, xs, q78, QMax)
	dequantize(back, qs, q78)
	for i, x := range xs {
		if err := math.Abs(float64(back[i]) - float64(x)); err > 1.0/512+1e-6 {
			t.Errorf("round trip of %v gave %v (err %v)", x, back[i], err)
		}
	}
}

// TestQuantizeDequantize round-trips a slice that mixes in-range
// values with one that saturates.
func TestQuantizeDequantize(t *testing.T) {
	src := []float32{0.1, -0.2, 1.5, -127, 200}
	q := make([]int16, len(src))
	QuantizeScaledQ(q, src, q78, QMax)
	back := make([]float32, len(src))
	dequantize(back, q, q78)
	// 200 saturates to QMax·2⁻⁸ ≈ 127.996.
	if want := float32(QMax) / 256; back[4] != want {
		t.Errorf("saturated dequantize = %v, want %v", back[4], want)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(float64(back[i]-src[i])) > 1.0/512+1e-6 {
			t.Errorf("index %d: %v -> %v", i, src[i], back[i])
		}
	}
}

// Property: on any power-of-two grid 2⁻ᵏ (k ≤ 8) the conversion error
// of an in-range value (|x| ≤ 125) is at most half a step.
func TestQuickConversionError(t *testing.T) {
	f := func(raw int32, k uint8) bool {
		x := float32(raw%12500) / 100
		scale := float32(math.Ldexp(1, -int(k%9)))
		back := make([]float32, 1)
		dequantize(back, []int16{QuantizeValueQ(x, scale, QMax)}, scale)
		return math.Abs(float64(back[0])-float64(x)) <= float64(scale)/2+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
