package tensor

// Reference kernels: the naive loops that define what the fast kernels
// of this package compute. The blocked GEMMs must be bit-identical to
// refMatMul and refMatMulATBRows — each output element accumulates its
// k products one at a time, in ascending k order, from a zero starting
// value, with the same skip-zero tests — and the packed int16 GEMM
// must equal refMatMulInt16 exactly. refConv is the direct convolution
// the im2col path is checked against, and refMaxPool the scalar
// pooling loop MaxPoolChannels must reproduce byte for byte. The
// property and fuzz tests enforce each equivalence across randomized
// shapes, including ragged tails.

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

// refMatMulInt16 is the int16 GEMM's naive triple loop, int32
// accumulation in ascending k order.
func refMatMulInt16(c []int32, a, b []int16, m, k, n int) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		clear(ci)
		for p := 0; p < k; p++ {
			av := int32(a[i*k+p])
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * int32(bv)
			}
		}
	}
}

// refConv is a direct (non-im2col) convolution. input is CHW, weights
// OIHW, bias length OutC, output CHW (OutC×OutH×OutW), overwritten.
func refConv(output, input, weights, bias []float32, g ConvGeom) {
	for oc := 0; oc < g.OutC; oc++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				s := bias[oc]
				for ic := 0; ic < g.InC; ic++ {
					for kh := 0; kh < g.KH; kh++ {
						ih := oh*g.Stride - g.Pad + kh
						if ih < 0 || ih >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							iw := ow*g.Stride - g.Pad + kw
							if iw < 0 || iw >= g.InW {
								continue
							}
							w := weights[((oc*g.InC+ic)*g.KH+kh)*g.KW+kw]
							s += w * input[(ic*g.InH+ih)*g.InW+iw]
						}
					}
				}
				output[(oc*g.OutH+oh)*g.OutW+ow] = s
			}
		}
	}
}

// refMaxPool pools every channel of input window by window with
// maxPoolWindow's bounds-checked scalar loop.
func refMaxPool(output []float32, argmax []int32, input []float32, g ConvGeom) {
	for c := 0; c < g.InC; c++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				maxPoolWindow(output, argmax, input, g, c, oh, ow)
			}
		}
	}
}
