//go:build !amd64

package tensor

// Off amd64 useAVX and useAVX2 are false, so the output-lane FC
// kernels take their portable Go bodies and these never run.

func fcRowAVX(y, w, x *float32, k int) {
	panic("tensor: AVX kernel unavailable on this architecture")
}

func fcRows4AVX(y *float32, ldy int, w, x *float32, k int) {
	panic("tensor: AVX kernel unavailable on this architecture")
}

func fcRowInt16AVX2(c *int32, w, x *int16, kp int) {
	panic("tensor: AVX2 int16 kernel unavailable on this architecture")
}

func fcRows4Int16AVX2(c *int32, w, x *int16, ldx, kp int) {
	panic("tensor: AVX2 int16 kernel unavailable on this architecture")
}
