package tensor

// Reference GEMM kernels: the original naive triple-loop forms, kept
// verbatim as the semantic definition of every product kernel in this
// package. The blocked kernels in gemm.go must be bit-identical to
// these — each output element accumulates its k products one at a
// time, in ascending k order, from a zero (or caller-provided)
// starting value, with the same skip-zero tests. The property and
// fuzz tests in gemm_test.go enforce the equivalence across
// randomized shapes, including ragged tails.
//
// The reference kernels are also the fallback for shapes too small to
// amortize packing.

// refMatMul computes C = A·B for row-major A (m×k), B (k×n), C (m×n).
func refMatMul(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		clear(ci)
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// refMatMulATBRows computes rows [lo, hi) of C = Aᵀ·B for A (k×m),
// B (k×n), C (m×n), leaving other rows untouched.
func refMatMulATBRows(c, a, b []float32, m, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		clear(c[i*n : (i+1)*n])
	}
	for p := 0; p < k; p++ {
		ap := a[p*m+lo : p*m+hi]
		bp := b[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c[(lo+i)*n : (lo+i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}
