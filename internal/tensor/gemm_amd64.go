package tensor

// gemmQuadPanelAVX is implemented in gemm_amd64.s.
//
//go:noescape
func gemmQuadPanelAVX(c *float32, n int, ap, bp *float32, k int)

// gemmQuadPanelPairAVX512 is implemented in gemm_amd64.s.
//
//go:noescape
func gemmQuadPanelPairAVX512(c *float32, n int, ap, bp *float32, ps, k int)

// matVecT4x16AVX is implemented in gemm_amd64.s.
//
//go:noescape
func matVecT4x16AVX(y *float32, ldy int, a *float32, lda int, x *float32, ldx, m int)

// cpuHasAVX is implemented in gemm_amd64.s.
func cpuHasAVX() bool

// cpuHasAVX512 is implemented in gemm_amd64.s.
func cpuHasAVX512() bool

// useAVX gates the float32 assembly kernels. A variable (not a constant)
// so the bit-identity tests can force the portable path and compare
// both on the same host.
var useAVX = cpuHasAVX()

// useAVX512 gates the zmm panel-pair GEMM kernels of both precisions,
// one tier above useAVX (float32) and useAVX2 (int16): a host with
// AVX-512F and AVX512_VNNI enabled by the OS. The dispatch runs them
// only while the lower tier's gate is also set, so forcing useAVX or
// useAVX2 off forces the whole path below it.
var useAVX512 = cpuHasAVX512()
