package tensor

// gemmQuadPanelInt16AVX2 is implemented in gemm_int16_amd64.s.
//
//go:noescape
func gemmQuadPanelInt16AVX2(c *int32, n int, ap, bp *int16, kp2 int)

// packPairStepsSSE2 is implemented in gemm_int16_amd64.s.
//
//go:noescape
func packPairStepsSSE2(d, src *int16, n, steps int)

// packPairSteps interleaves steps full pair steps of one B panel (see
// packPairStepsGo) with SSE2. The checks keep the assembly in bounds.
func packPairSteps(d, src []int16, n, steps int) {
	if steps <= 0 {
		return
	}
	_ = d[steps*gemmPanelW*gemmPairW-1]
	_ = src[(2*steps-1)*n+gemmPanelW-1]
	packPairStepsSSE2(&d[0], &src[0], n, steps)
}

// packQuadPairsSSE2 is implemented in gemm_int16_amd64.s.
//
//go:noescape
func packQuadPairsSSE2(d, src *int16, k, blocks int)

// packQuadPairs writes the first pairs pair steps of one full A quad
// (see packQuadPairsGo), four steps at a time with SSE2 and the rest
// with the portable body. The checks keep the assembly in bounds.
func packQuadPairs(d, src []int16, k, pairs int) {
	const block = 4 // pair steps per 16-byte row load
	if blocks := pairs / block; blocks > 0 {
		_ = d[blocks*block*gemmQuadH*gemmPairW-1]
		_ = src[(gemmQuadH-1)*k+blocks*block*gemmPairW-1]
		packQuadPairsSSE2(&d[0], &src[0], k, blocks)
	}
	done := pairs &^ (block - 1)
	packQuadPairsGo(d[done*gemmQuadH*gemmPairW:], src[done*gemmPairW:], k, pairs-done)
}

// cpuHasAVX2 is implemented in gemm_int16_amd64.s.
func cpuHasAVX2() bool

// useAVX2 gates the int16 assembly microkernel (VPMADDWD needs AVX2's
// integer ymm ops, a stricter requirement than the float kernel's
// AVX). A variable so the bit-identity tests can force the portable
// path and compare both on the same host.
var useAVX2 = cpuHasAVX2()
