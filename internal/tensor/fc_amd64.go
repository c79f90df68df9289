package tensor

// The output-lane FC kernels' assembly bodies are in fc_amd64.s; the
// float32 ones run under useAVX, the int16 ones under useAVX2.

//go:noescape
func fcRowAVX(y, w, x *float32, k int)

//go:noescape
func fcRows4AVX(y *float32, ldy int, w, x *float32, k int)

//go:noescape
func fcRowInt16AVX2(c *int32, w, x *int16, kp int)

//go:noescape
func fcRows4Int16AVX2(c *int32, w, x *int16, ldx, kp int)
