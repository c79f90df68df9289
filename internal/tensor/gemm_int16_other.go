//go:build !amd64

package tensor

// useAVX2 is always false off amd64; kernelQuadPanelInt16 takes the
// portable Go body, which agrees exactly by construction.
var useAVX2 = false

func gemmQuadPanelInt16AVX2(c *int32, n int, ap, bp *int16, kp2 int) {
	panic("tensor: AVX2 int16 kernel unavailable on this architecture")
}

func packPairSteps(d, src []int16, n, steps int) { packPairStepsGo(d, src, n, steps) }

func packQuadPairs(d, src []int16, k, pairs int) { packQuadPairsGo(d, src, k, pairs) }
