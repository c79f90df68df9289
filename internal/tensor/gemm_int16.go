package tensor

// Packed int16 GEMM kernels for the quantized inference fast path.
//
// Same architecture as the float path in gemm.go — 4-row A quads,
// column panels, KC cache blocking, one microkernel, the ragged last
// panel through a zero stack tile — but the element type is int16 with
// int32 accumulators, and both packed layouts interleave *pairs* of k
// steps so the AVX2 kernel can use VPMADDWD: one instruction
// multiplies 16 int16 values and sums adjacent product pairs into 8
// int32 lanes, twice the multiply-accumulate density of the float32
// VMULPS/VADDPS pair.
//
// Layouts (kp2 = ceil(k/2) pair steps, odd k zero-padded):
//
//	packed B panel: panel[p2*32 + c*2 + s] = B[2·p2+s][j0+c]
//	  — per pair step two 16-lane ymm where 32-bit lane c holds the
//	    k-adjacent pair for column j0+c, exactly VPMADDWD's shape.
//	packed A quad:  quad[p2*8 + r*2 + s] = A[i0+r][2·p2+s]
//	  — per pair step each row's k-pair is one aligned 32-bit unit,
//	    broadcastable with VPBROADCASTD.
//
// Producing these layouts element by element costs as many moves as
// the float32 packs for half the bytes, so on amd64 the full pair steps
// of full panels and quads are packed with SSE2, part of the amd64
// baseline: PUNPCKLWL/PUNPCKHWL interleave two B rows, and a 4×4
// transpose of 32-bit units lays out four A rows (packPairSteps,
// packQuadPairs). Their portable Go bodies run elsewhere, and the pack
// tests hold both to the layouts above.
//
// Determinism contract: stronger than the float path's. Products fit
// int32 exactly (|q| ≤ 32767 so |a·b + a·b| < 2³¹) and int32 addition
// is associative and commutative, so *any* accumulation order gives
// bit-identical results — pairwise VPMADDWD sums, KC-block
// round-trips through C, worker tiling over M/N, everything. The
// packed kernels agree with the reference loops exactly, not just
// within tolerance (FuzzInt16GEMM pins exact agreement), and no
// skip-zero test is needed: an integer zero product is inert, so
// zero-padding odd k and ragged quads/panels cannot perturb results.

// gemmPairW is the number of int16 k-pairs interleaved per packed
// step: 2 values per 32-bit VPMADDWD unit.
const gemmPairW = 2

// PackPairs returns the number of k-pair steps covering a depth-k
// operand: ceil(k/2), the odd tail zero-padded.
func PackPairs(k int) int { return (k + gemmPairW - 1) / gemmPairW }

// PackBSizeInt16 returns the scratch length PackBInt16 needs for a
// k×n int16 B operand.
func PackBSizeInt16(k, n int) int {
	return PackPanels(n) * PackPairs(k) * gemmPanelW * gemmPairW
}

// PackASizeInt16 returns the scratch length PackAInt16 needs for an
// m×k int16 A operand.
func PackASizeInt16(m, k int) int {
	return PackQuads(m) * PackPairs(k) * gemmQuadH * gemmPairW
}

// PackBInt16 repacks row-major int16 B (k×n) into pair-interleaved
// panel-major form (see the package comment for the layout).
func PackBInt16(dst, b []int16, k, n int) {
	if len(b) != k*n {
		panic("tensor: PackBInt16 size mismatch")
	}
	PackBRangeInt16(dst, b, k, n, 0, PackPanels(n))
}

// PackBRangeInt16 packs column panels [loPanel, hiPanel) of B into the
// matching regions of dst, leaving other panels untouched. Panels are
// disjoint in dst, so a panel range is safe to split across workers.
// Like PackBRange it walks B in blocks of rows across all full panels;
// packPairSteps interleaves each block's full pair steps.
func PackBRangeInt16(dst, b []int16, k, n, loPanel, hiPanel int) {
	np, kp2 := PackPanels(n), PackPairs(k)
	const step = gemmPanelW * gemmPairW // int16s per pair step: 32
	if len(dst) < np*kp2*step || len(b) != k*n {
		panic("tensor: PackBRangeInt16 size mismatch")
	}
	if loPanel < 0 || hiPanel > np || loPanel > hiPanel {
		panic("tensor: PackBRangeInt16 panel range out of bounds")
	}
	full := min(hiPanel, n/gemmPanelW)
	pairs := k / gemmPairW // pair steps with both rows live
	for q0 := 0; q0 < pairs; q0 += packKB / gemmPairW {
		steps := min(packKB/gemmPairW, pairs-q0)
		for jp := loPanel; jp < full; jp++ {
			packPairSteps(dst[jp*kp2*step+q0*step:], b[2*q0*n+jp*gemmPanelW:], n, steps)
		}
	}
	for jp := loPanel; jp < hiPanel; jp++ {
		// The odd last row of every panel, and every step of the
		// ragged last panel, go element by element.
		p2 := pairs
		if jp >= full {
			p2 = 0
		}
		j0 := jp * gemmPanelW
		w := min(gemmPanelW, n-j0)
		panel := dst[jp*kp2*step : (jp+1)*kp2*step]
		for ; p2 < kp2; p2++ {
			d := panel[p2*step : (p2+1)*step]
			clear(d)
			for s := 0; s < gemmPairW && 2*p2+s < k; s++ {
				row := b[(2*p2+s)*n+j0 : (2*p2+s)*n+j0+w]
				for c, v := range row {
					d[c*gemmPairW+s] = v
				}
			}
		}
	}
}

// packPairStepsGo writes steps pair steps of one full B panel: step s
// interleaves rows 2s and 2s+1 of src (row stride n) column by column
// into d[s*32:], the layout of the package comment. The portable body
// of packPairSteps, which runs SSE2 on amd64.
func packPairStepsGo(d, src []int16, n, steps int) {
	for s := 0; s < steps; s++ {
		r0 := (*[gemmPanelW]int16)(src[2*s*n:])
		r1 := (*[gemmPanelW]int16)(src[(2*s+1)*n:])
		ds := (*[gemmPanelW * gemmPairW]int16)(d[s*gemmPanelW*gemmPairW:])
		for c := range r0 {
			ds[2*c], ds[2*c+1] = r0[c], r1[c]
		}
	}
}

// packQuadPairsGo writes the first pairs pair steps of one full A
// quad: step p2 holds the k pair (2·p2, 2·p2+1) of each of the four
// rows of src (row stride k) in d[p2*8:], the layout of the package
// comment. The portable body of packQuadPairs, which runs SSE2 on
// amd64.
func packQuadPairsGo(d, src []int16, k, pairs int) {
	for p2 := 0; p2 < pairs; p2++ {
		ds := (*[gemmQuadH * gemmPairW]int16)(d[p2*gemmQuadH*gemmPairW:])
		for r := 0; r < gemmQuadH; r++ {
			ds[r*gemmPairW], ds[r*gemmPairW+1] = src[r*k+2*p2], src[r*k+2*p2+1]
		}
	}
}

// PackAInt16 repacks row-major int16 A (m×k) into pair-interleaved
// quad-major form (see the package comment for the layout). Ragged
// quads and odd k are zero-padded; integer zero products are inert.
func PackAInt16(dst, a []int16, m, k int) {
	if len(a) != m*k {
		panic("tensor: PackAInt16 size mismatch")
	}
	PackARangeInt16(dst, a, m, k, 0, m)
}

// PackARangeInt16 packs the quads covering rows [lo, hi) of A. lo must
// be quad-aligned; quads are disjoint in dst, so row ranges on
// GEMMRowGrain boundaries are safe to split across workers.
func PackARangeInt16(dst, a []int16, m, k, lo, hi int) {
	kp2 := PackPairs(k)
	const step = gemmQuadH * gemmPairW // int16s per pair step: 8
	if len(dst) < PackASizeInt16(m, k) || len(a) != m*k {
		panic("tensor: PackARangeInt16 size mismatch")
	}
	if lo < 0 || hi > m || lo > hi || lo%gemmQuadH != 0 {
		panic("tensor: PackARangeInt16 row range out of bounds")
	}
	for i0 := lo; i0 < hi; i0 += gemmQuadH {
		quad := dst[(i0/gemmQuadH)*kp2*step : (i0/gemmQuadH+1)*kp2*step]
		rows := min(gemmQuadH, hi-i0)
		if rows < gemmQuadH {
			clear(quad)
			for r := 0; r < rows; r++ {
				src := a[(i0+r)*k : (i0+r+1)*k]
				for p, v := range src {
					quad[(p/gemmPairW)*step+r*gemmPairW+p%gemmPairW] = v
				}
			}
			continue
		}
		packQuadPairs(quad, a[i0*k:], k, k/gemmPairW)
		if kEven := k &^ 1; kEven < k {
			r := a[i0*k+kEven:]
			d := (*[step]int16)(quad[kEven*gemmQuadH:])
			*d = [step]int16{r[0], 0, r[k], 0, r[2*k], 0, r[3*k], 0}
		}
	}
}

// kernelQuadPanelInt16 multiplies one packed A quad (4×k) into one
// packed B panel (k×16) over kp2 pair steps, accumulating into the four
// int32 C rows starting at c with a row stride of n elements.
func kernelQuadPanelInt16(c []int32, n int, ap, bp []int16, kp2 int) {
	if useAVX2 {
		gemmQuadPanelInt16AVX2(&c[0], n, &ap[0], &bp[0], kp2)
		return
	}
	kernelQuadPanelInt16Go(c, n, ap, bp, kp2)
}

func kernelQuadPanelInt16Go(c []int32, n int, ap, bp []int16, kp2 int) {
	var rows [gemmQuadH]*[gemmPanelW]int32
	for r := range rows {
		rows[r] = (*[gemmPanelW]int32)(c[r*n:])
	}
	for p2 := 0; p2 < kp2; p2++ {
		av := (*[gemmQuadH * gemmPairW]int16)(ap[p2*gemmQuadH*gemmPairW:])
		bv := (*[gemmPanelW * gemmPairW]int16)(bp[p2*gemmPanelW*gemmPairW:])
		for r, cr := range rows {
			a0, a1 := int32(av[r*gemmPairW]), int32(av[r*gemmPairW+1])
			for j := range cr {
				cr[j] += a0*int32(bv[j*gemmPairW]) + a1*int32(bv[j*gemmPairW+1])
			}
		}
	}
}

// scalarRowPackedInt16 computes row i of C from the packed operands:
// the path of the m % 4 tail rows.
func scalarRowPackedInt16(c []int32, ap, bp []int16, i, k, n int) {
	kp2 := PackPairs(k)
	aStep := gemmQuadH * gemmPairW
	bStep := gemmPanelW * gemmPairW
	base := (i / gemmQuadH) * kp2 * aStep
	lane := i % gemmQuadH
	ci := c[i*n : (i+1)*n]
	for jp := 0; jp < PackPanels(n); jp++ {
		cj := ci[jp*gemmPanelW : min(n, (jp+1)*gemmPanelW)]
		panel := bp[jp*kp2*bStep:]
		for p2 := 0; p2 < kp2; p2++ {
			a0 := int32(ap[base+p2*aStep+lane*gemmPairW])
			a1 := int32(ap[base+p2*aStep+lane*gemmPairW+1])
			if a0 == 0 && a1 == 0 {
				continue
			}
			row := panel[p2*bStep : p2*bStep+len(cj)*gemmPairW]
			for j := range cj {
				cj[j] += a0*int32(row[j*gemmPairW]) + a1*int32(row[j*gemmPairW+1])
			}
		}
	}
}

// MatMulPackedInt16 computes rows [lo, hi) of the int32 product
// C = A·B from int16 operands packed by PackAInt16 (ap) and PackBInt16
// (bp), leaving other rows of C untouched. lo must be quad-aligned
// (use GEMMRowGrain as the parallel.ForChunks grain); hi may be
// ragged. Row ranges tile bit-identically — int32 accumulation is
// exact — so callers pack once and fan row chunks across workers.
func MatMulPackedInt16(c []int32, ap, bp []int16, m, k, n int, lo, hi int) {
	if len(c) != m*n || len(ap) < PackASizeInt16(m, k) || len(bp) < PackBSizeInt16(k, n) {
		panic("tensor: MatMulPackedInt16 dimension mismatch")
	}
	if lo < 0 || hi > m || lo > hi || lo%gemmQuadH != 0 {
		panic("tensor: MatMulPackedInt16 row range out of bounds")
	}
	for i := lo; i < hi; i++ {
		clear(c[i*n : (i+1)*n])
	}
	kp2 := PackPairs(k)
	aStep := gemmQuadH * gemmPairW
	bStep := gemmPanelW * gemmPairW
	quadHi := lo + (hi-lo)/gemmQuadH*gemmQuadH
	npFull := n / gemmPanelW
	// KC blocking in pair units. Integer accumulation is exact, so the
	// round-trip through C between blocks is free; the block keeps the
	// active B strip in L1 for large k.
	const kcPairs = gemmKC / gemmPairW
	for pc := 0; pc < kp2 && npFull > 0; pc += kcPairs {
		kcb := min(kcPairs, kp2-pc)
		for i := lo; i < quadHi; i += gemmQuadH {
			quad := ap[(i/gemmQuadH)*kp2*aStep+pc*aStep:]
			for jp := 0; jp < npFull; jp++ {
				kernelQuadPanelInt16(c[i*n+jp*gemmPanelW:], n, quad, bp[jp*kp2*bStep+pc*bStep:], kcb)
			}
		}
	}
	if j0 := npFull * gemmPanelW; j0 < n && kp2 > 0 {
		// Ragged last panel: run the full-width microkernel into a zero
		// stack tile (the rows of C were just cleared) and copy the live
		// columns back. Padded B columns are zero, so the extra lanes
		// compute inert zeros.
		panel := bp[npFull*kp2*bStep:]
		for i := lo; i < quadHi; i += gemmQuadH {
			var tile [gemmQuadH * gemmPanelW]int32
			kernelQuadPanelInt16(tile[:], gemmPanelW, ap[(i/gemmQuadH)*kp2*aStep:], panel, kp2)
			for r := 0; r < gemmQuadH; r++ {
				copy(c[(i+r)*n+j0:(i+r+1)*n], tile[r*gemmPanelW:])
			}
		}
	}
	for i := quadHi; i < hi; i++ {
		scalarRowPackedInt16(c, ap, bp, i, k, n)
	}
}
