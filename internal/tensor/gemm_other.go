//go:build !amd64

package tensor

// useAVX and useAVX512 are always false off amd64; kernelQuadPanel
// takes the portable Go body, which is bit-identical by construction.
var (
	useAVX    = false
	useAVX512 = false
)

func gemmQuadPanelAVX(c *float32, n int, ap, bp *float32, k int) {
	panic("tensor: AVX kernel unavailable on this architecture")
}

func gemmQuadPanelPairAVX512(c *float32, n int, ap, bp *float32, ps, k int) {
	panic("tensor: AVX-512 kernel unavailable on this architecture")
}

func matVecT4x16AVX(y *float32, ldy int, a *float32, lda int, x *float32, ldx, m int) {
	panic("tensor: AVX kernel unavailable on this architecture")
}
