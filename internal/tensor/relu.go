package tensor

import "math"

// ReLU writes dst[i] = src[i] if src[i] > 0, else +0: NaN and −0 map to
// +0, positive values (denormals and +Inf included) pass through bit
// for bit. It decides on the bit pattern instead of a float compare, so
// the loop has no data-dependent branch. dst must be at least as long
// as src.
func ReLU(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		dst[i] = math.Float32frombits(b & positiveMask(b))
	}
}

// ReLUGrad writes the ReLU input gradient: dst[i] = gradOut[i] where
// in[i] > 0, else +0, with ReLU's branch-free test on in. dst and
// gradOut must be at least as long as in.
func ReLUGrad(dst, gradOut, in []float32) {
	dst, gradOut = dst[:len(in)], gradOut[:len(in)]
	for i, v := range in {
		dst[i] = math.Float32frombits(math.Float32bits(gradOut[i]) & positiveMask(math.Float32bits(v)))
	}
}

// positiveMask returns all ones when the float32 with bits b is
// greater than zero and zero otherwise. As an unsigned integer, b lies
// in [1, 0x7f800000] exactly for the positive non-NaN floats (the
// smallest denormal up to +Inf): +0 lies below, positive NaNs above,
// and every value with the sign bit set (−0, negatives, negative NaNs)
// far above. b−1 wraps +0 to the top of the range, so one signed
// compare against 0x7f800000, taken as the sign of a 64-bit difference,
// tests the whole interval.
func positiveMask(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}
