package tensor

// gemmQuadPanelAVX is implemented in gemm_amd64.s.
//
//go:noescape
func gemmQuadPanelAVX(c *float32, n int, ap, bp *float32, k int)

// matVecT4x16AVX is implemented in gemm_amd64.s.
//
//go:noescape
func matVecT4x16AVX(y *float32, ldy int, a *float32, lda int, x *float32, ldx, m int)

// cpuHasAVX is implemented in gemm_amd64.s.
func cpuHasAVX() bool

// useAVX gates the float32 assembly kernels. A variable (not a constant)
// so the bit-identity tests can force the portable path and compare
// both on the same host.
var useAVX = cpuHasAVX()
