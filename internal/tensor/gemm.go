package tensor

// Cache-blocked, panel-packed GEMM kernels.
//
// The kernels here replace the naive triple loops (kept as test oracles
// in ref_test.go) on the training/inference hot path. All three product
// shapes used by the layers — A·B (conv forward), A·Bᵀ (conv dW) and
// Aᵀ·B (conv dIn) — funnel into one microkernel that multiplies a
// packed 4-row A quad by a packed 16-column B panel: a 4×16 register
// tile, two 8-lane vectors per row, so eight independent accumulator
// chains hide the add latency. Packing puts both operands in
// unit-stride order regardless of the original layout, and the
// transposed forms differ only in how they pack. The ragged last
// panel runs through the same microkernel into a zero-padded stack
// tile, so only the m % 4 tail rows take the scalar path.
//
// Determinism contract: the PR 1 golden tests require results that are
// byte-identical across worker counts, and the worker split only tiles
// the M (rows) and N (columns) dimensions — never K. The blocked
// kernels honour the same contract at the instruction level: every
// output element is produced by a running float32 sum that receives
// its k products one `+=` at a time in ascending k order, with the
// reference kernels' `av != 0` skip test applied per A row. M/N tiling,
// K cache-blocking (the running sum round-trips through C exactly),
// and the register/SIMD-lane placement of the sum are therefore all
// free — each element's arithmetic sequence never changes — while the
// K loop must never be reordered, split into partial sums, or fused
// into multiply-add. The AVX path relies on packed single-precision
// mul/add being IEEE-exact per lane, i.e. bitwise equal to the scalar
// ops; it tests the skip once per block of two k steps and takes a
// per-step path only for a block with a zero A lane. On an AVX-512
// host the pairs of full panels run a 4×32 zmm tile whose lanes run
// the same instruction sequence as the ymm kernel's, so it is
// bitwise equal to it (gemmQuadPanelPairAVX512). gemm_test.go pins
// bit-identity against the reference kernels across randomized shapes
// including ragged tails, zeros of both signs, infinities and NaNs, on
// every kernel path the host can run.
//
// The fully-connected forward pass of frozen weights runs its own
// output-lane kernels (fc.go). Those apply no skip test: like
// MatVecAcc, they add every product, and so match it for all operands.

const (
	gemmQuadH  = 4  // packed A rows per microkernel call
	gemmPanelW = 16 // packed B columns per microkernel call (two AVX vectors)
	gemmKC     = 512
	// packKB is the number of B rows a pack walks across all its
	// panels before moving on: the source rows stay in L1 while each
	// panel receives one contiguous run of packKB rows.
	packKB = 16
)

// GEMMRowGrain is the output-row quantum call sites should pass to
// parallel.ForChunks when splitting a product over workers, so worker
// chunks land on microkernel quad boundaries and cache tiling composes
// with worker chunking instead of fighting it. Any grain is correct
// (rows are independent); off-quad grains just shear full quads into
// scalar tail rows at chunk seams.
const GEMMRowGrain = gemmQuadH

// PackPanels returns the number of gemmPanelW-wide column panels
// covering an n-column B operand.
func PackPanels(n int) int { return (n + gemmPanelW - 1) / gemmPanelW }

// PackQuads returns the number of gemmQuadH-tall row quads covering an
// m-row A operand.
func PackQuads(m int) int { return (m + gemmQuadH - 1) / gemmQuadH }

// PackBSize returns the scratch length PackB/PackBTRange need for a
// k×n B operand.
func PackBSize(k, n int) int { return PackPanels(n) * k * gemmPanelW }

// PackASize returns the scratch length PackA/PackATRange need for an
// m×k A operand.
func PackASize(m, k int) int { return PackQuads(m) * k * gemmQuadH }

// PackB repacks row-major B (k×n) into panel-major form: 16-column
// panels, each storing its k rows contiguously, with the ragged last
// panel zero-padded. The packed layout lets the microkernel read B as
// one forward stream regardless of n.
func PackB(dst, b []float32, k, n int) {
	if len(b) != k*n {
		panic("tensor: PackB size mismatch")
	}
	PackBRange(dst, b, k, n, 0, PackPanels(n))
}

// PackBRange packs column panels [loPanel, hiPanel) of B into the
// matching regions of dst, leaving other panels untouched. Panels are
// disjoint in dst, so a panel range is safe to split across workers.
// It walks B in blocks of packKB rows across all full panels, copying
// each panel row as one fixed-size array.
func PackBRange(dst, b []float32, k, n, loPanel, hiPanel int) {
	np := PackPanels(n)
	if len(dst) < np*k*gemmPanelW || len(b) != k*n {
		panic("tensor: PackBRange size mismatch")
	}
	if loPanel < 0 || hiPanel > np || loPanel > hiPanel {
		panic("tensor: PackBRange panel range out of bounds")
	}
	full := min(hiPanel, n/gemmPanelW)
	for p0 := 0; p0 < k; p0 += packKB {
		p1 := min(p0+packKB, k)
		for jp := loPanel; jp < full; jp++ {
			panel := dst[jp*k*gemmPanelW:]
			src := b[jp*gemmPanelW:]
			for p := p0; p < p1; p++ {
				copyPanelRow((*[gemmPanelW]float32)(panel[p*gemmPanelW:]), (*[gemmPanelW]float32)(src[p*n:]))
			}
		}
	}
	if jp := max(loPanel, full); jp < hiPanel {
		j0 := jp * gemmPanelW
		panel := dst[jp*k*gemmPanelW : (jp+1)*k*gemmPanelW]
		for p := 0; p < k; p++ {
			d := panel[p*gemmPanelW : (p+1)*gemmPanelW]
			clear(d[copy(d, b[p*n+j0:p*n+n]):])
		}
	}
}

// copyPanelRow copies one full panel row in 16-byte pieces, which the
// compiler moves inline; a single 64-byte array assignment between
// slices it cannot prove disjoint becomes a runtime.memmove call.
func copyPanelRow(d, s *[gemmPanelW]float32) {
	for i := 0; i < gemmPanelW; i += 4 {
		*(*[4]float32)(d[i:]) = *(*[4]float32)(s[i:])
	}
}

// PackBTRange packs column panels [loPanel, hiPanel) from the
// transposed source bt (n×k).
func PackBTRange(dst, bt []float32, k, n, loPanel, hiPanel int) {
	np := PackPanels(n)
	if len(dst) < np*k*gemmPanelW || len(bt) != n*k {
		panic("tensor: PackBTRange size mismatch")
	}
	if loPanel < 0 || hiPanel > np || loPanel > hiPanel {
		panic("tensor: PackBTRange panel range out of bounds")
	}
	for jp := loPanel; jp < hiPanel; jp++ {
		j0 := jp * gemmPanelW
		w := n - j0
		if w > gemmPanelW {
			w = gemmPanelW
		}
		panel := dst[jp*k*gemmPanelW : (jp+1)*k*gemmPanelW]
		for c := 0; c < w; c++ {
			src := bt[(j0+c)*k : (j0+c+1)*k]
			for p, v := range src {
				panel[p*gemmPanelW+c] = v
			}
		}
		if w < gemmPanelW {
			for p := 0; p < k; p++ {
				clear(panel[p*gemmPanelW+w : (p+1)*gemmPanelW])
			}
		}
	}
}

// PackA repacks row-major A (m×k) into quad-major form: 4-row quads,
// each storing column p as 4 consecutive lanes, with the ragged last
// quad zero-padded (a zero lane is skipped by the kernel and never
// stored, so padding rows are inert).
func PackA(dst, a []float32, m, k int) {
	if len(a) != m*k {
		panic("tensor: PackA size mismatch")
	}
	PackARange(dst, a, m, k, 0, m)
}

// PackARange packs the quads covering rows [lo, hi) of A. lo must be
// quad-aligned; quads are disjoint in dst, so row ranges on
// GEMMRowGrain boundaries are safe to split across workers.
func PackARange(dst, a []float32, m, k, lo, hi int) {
	if len(dst) < PackASize(m, k) || len(a) != m*k {
		panic("tensor: PackARange size mismatch")
	}
	if lo < 0 || hi > m || lo > hi || lo%gemmQuadH != 0 {
		panic("tensor: PackARange row range out of bounds")
	}
	for i0 := lo; i0 < hi; i0 += gemmQuadH {
		quad := dst[(i0/gemmQuadH)*gemmQuadH*k : (i0/gemmQuadH+1)*gemmQuadH*k]
		rows := hi - i0
		if rows > gemmQuadH {
			rows = gemmQuadH
		}
		if rows == gemmQuadH {
			r0 := a[(i0+0)*k : (i0+1)*k]
			r1 := a[(i0+1)*k : (i0+2)*k]
			r2 := a[(i0+2)*k : (i0+3)*k]
			r3 := a[(i0+3)*k : (i0+4)*k]
			for p := 0; p < k; p++ {
				d := quad[p*gemmQuadH : p*gemmQuadH+gemmQuadH]
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			}
		} else {
			clear(quad)
			for r := 0; r < rows; r++ {
				src := a[(i0+r)*k : (i0+r+1)*k]
				for p, v := range src {
					quad[p*gemmQuadH+r] = v
				}
			}
		}
	}
}

// PackATRange packs the quads covering rows [lo, hi) from the
// transposed source at (k×m). lo must be quad-aligned.
func PackATRange(dst, at []float32, m, k, lo, hi int) {
	if len(dst) < PackASize(m, k) || len(at) != k*m {
		panic("tensor: PackATRange size mismatch")
	}
	if lo < 0 || hi > m || lo > hi || lo%gemmQuadH != 0 {
		panic("tensor: PackATRange row range out of bounds")
	}
	for i0 := lo; i0 < hi; i0 += gemmQuadH {
		quad := dst[(i0/gemmQuadH)*gemmQuadH*k : (i0/gemmQuadH+1)*gemmQuadH*k]
		rows := hi - i0
		if rows > gemmQuadH {
			rows = gemmQuadH
		}
		if rows == gemmQuadH {
			for p := 0; p < k; p++ {
				copy(quad[p*gemmQuadH:p*gemmQuadH+gemmQuadH], at[p*m+i0:p*m+i0+gemmQuadH])
			}
		} else {
			for p := 0; p < k; p++ {
				d := quad[p*gemmQuadH : (p+1)*gemmQuadH]
				copy(d, at[p*m+i0:p*m+i0+rows])
				clear(d[rows:])
			}
		}
	}
}

// GEMMKernels names the packed GEMM microkernel tier this process
// runs: "avx512-vnni" (zmm panel pairs at both precisions, ymm for a
// lone panel), "avx2" (ymm float32 and int16 tiles), "avx" (ymm
// float32, portable int16) or "go". Every tier computes the same bits.
func GEMMKernels() string {
	switch {
	case useAVX512 && useAVX && useAVX2:
		return "avx512-vnni"
	case useAVX && useAVX2:
		return "avx2"
	case useAVX:
		return "avx"
	}
	return "go"
}

// kernelQuadPanel multiplies one packed A quad (4×k) into one packed B
// panel (k×16), accumulating into the four C rows starting at c with a
// row stride of n elements. The Go body and the AVX body in
// gemm_amd64.s are bit-identical: per lane, ascending-p adds into the
// running C value, rows skipped where the A lane is zero (`!= 0`, so
// NaN lanes are never skipped, matching the reference kernels).
func kernelQuadPanel(c []float32, n int, ap, bp []float32, k int) {
	if useAVX {
		gemmQuadPanelAVX(&c[0], n, &ap[0], &bp[0], k)
		return
	}
	kernelQuadPanelGo(c, n, ap, bp, k)
}

func kernelQuadPanelGo(c []float32, n int, ap, bp []float32, k int) {
	var rows [gemmQuadH]*[gemmPanelW]float32
	for r := range rows {
		rows[r] = (*[gemmPanelW]float32)(c[r*n:])
	}
	for p := 0; p < k; p++ {
		av := (*[gemmQuadH]float32)(ap[p*gemmQuadH:])
		bv := (*[gemmPanelW]float32)(bp[p*gemmPanelW:])
		for r, v := range av {
			if v == 0 {
				continue
			}
			cr := rows[r]
			for j, b := range bv {
				cr[j] += v * b
			}
		}
	}
}

// scalarRowPacked computes row i of C from the packed operands, with
// the same skip and accumulation order as the microkernel: the path of
// the m % 4 tail rows.
func scalarRowPacked(c []float32, ap, bp []float32, i, k, n int) {
	base := (i / gemmQuadH) * gemmQuadH * k
	lane := i % gemmQuadH
	ci := c[i*n : (i+1)*n]
	for jp := 0; jp < PackPanels(n); jp++ {
		cj := ci[jp*gemmPanelW : min(n, (jp+1)*gemmPanelW)]
		panel := bp[jp*k*gemmPanelW:]
		for p := 0; p < k; p++ {
			v := ap[base+p*gemmQuadH+lane]
			if v == 0 {
				continue
			}
			row := panel[p*gemmPanelW : p*gemmPanelW+len(cj)]
			for j, b := range row {
				cj[j] += v * b
			}
		}
	}
}

// MatMulPacked computes rows [lo, hi) of C = A·B from operands packed
// by PackA/PackATRange (ap) and PackB/PackBTRange (bp), leaving other
// rows of C untouched. lo must be quad-aligned (use GEMMRowGrain as
// the parallel.ForChunks grain); hi may be ragged. Row ranges tile
// bit-identically: callers pack once and fan row chunks across
// workers. It is MatMulPackedAcc into cleared rows.
func MatMulPacked(c, ap, bp []float32, m, k, n int, lo, hi int) {
	checkPacked(c, ap, bp, m, k, n, lo, hi)
	for i := lo; i < hi; i++ {
		clear(c[i*n : (i+1)*n])
	}
	MatMulPackedAcc(c, ap, bp, m, k, n, lo, hi)
}

func checkPacked(c, ap, bp []float32, m, k, n int, lo, hi int) {
	if len(c) != m*n || len(ap) < PackASize(m, k) || len(bp) < PackBSize(k, n) {
		panic("tensor: MatMulPacked dimension mismatch")
	}
	if lo < 0 || hi > m || lo > hi || lo%gemmQuadH != 0 {
		panic("tensor: MatMulPacked row range out of bounds")
	}
}

// MatMulPackedAcc adds rows [lo, hi) of A·B into C: each element's k
// products join its running value one at a time, in ascending k order,
// skipping zero A elements, with the same operand rules as
// MatMulPacked.
func MatMulPackedAcc(c, ap, bp []float32, m, k, n int, lo, hi int) {
	checkPacked(c, ap, bp, m, k, n, lo, hi)
	quadHi := lo + (hi-lo)/gemmQuadH*gemmQuadH
	npFull := n / gemmPanelW
	// K cache-blocking: the running sums round-trip through C between
	// blocks, which is exact, so block size is a free parameter. Keeps
	// the active B panel strip within reach of L1 for large k.
	for pc := 0; pc < k && npFull > 0; pc += gemmKC {
		kcb := min(gemmKC, k-pc)
		for i := lo; i < quadHi; i += gemmQuadH {
			quad := ap[(i/gemmQuadH)*gemmQuadH*k+pc*gemmQuadH:]
			jp := 0
			if useAVX512 && useAVX {
				// Pairs of full panels as one 4×32 zmm tile; a lone
				// last full panel takes the ymm kernel below.
				for ; jp+2 <= npFull; jp += 2 {
					gemmQuadPanelPairAVX512(&c[i*n+jp*gemmPanelW], n, &quad[0],
						&bp[jp*k*gemmPanelW+pc*gemmPanelW], k*gemmPanelW, kcb)
				}
			}
			for ; jp < npFull; jp++ {
				kernelQuadPanel(c[i*n+jp*gemmPanelW:], n, quad, bp[jp*k*gemmPanelW+pc*gemmPanelW:], kcb)
			}
		}
	}
	if j0 := npFull * gemmPanelW; j0 < n && k > 0 {
		// Ragged last panel: run the full-width microkernel into a
		// stack tile loaded with the live columns of C and copy them
		// back. Padded B columns are zero and their lanes are
		// discarded, so each live lane's sum is the one the reference
		// computes, bit for bit.
		panel := bp[npFull*k*gemmPanelW:]
		for i := lo; i < quadHi; i += gemmQuadH {
			var tile [gemmQuadH * gemmPanelW]float32
			for r := 0; r < gemmQuadH; r++ {
				copy(tile[r*gemmPanelW:], c[(i+r)*n+j0:(i+r+1)*n])
			}
			kernelQuadPanel(tile[:], gemmPanelW, ap[(i/gemmQuadH)*gemmQuadH*k:], panel, k)
			for r := 0; r < gemmQuadH; r++ {
				copy(c[(i+r)*n+j0:(i+r+1)*n], tile[r*gemmPanelW:])
			}
		}
	}
	for i := quadHi; i < hi; i++ {
		scalarRowPacked(c, ap, bp, i, k, n)
	}
}

// MatVecAcc accumulates y[o] += A[o,:]·x for row-major A (m×k) into
// the caller-seeded y (FC forward seeds it with the bias), processing
// each output's products in ascending index order with no skip-zero
// test — bit-identical to the naive per-row dot starting from y[o],
// but running four independent row sums per pass over x.
func MatVecAcc(y, a, x []float32, m, k int) {
	if len(a) != m*k || len(y) < m || len(x) != k {
		panic("tensor: MatVecAcc dimension mismatch")
	}
	o := 0
	for ; o+4 <= m; o += 4 {
		r0 := a[(o+0)*k : (o+1)*k]
		r1 := a[(o+1)*k : (o+2)*k]
		r2 := a[(o+2)*k : (o+3)*k]
		r3 := a[(o+3)*k : (o+4)*k]
		s0, s1, s2, s3 := y[o], y[o+1], y[o+2], y[o+3]
		for i, xv := range x {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < m; o++ {
		row := a[o*k : (o+1)*k]
		s := y[o]
		for i, xv := range x {
			s += row[i] * xv
		}
		y[o] = s
	}
}

// MatVecTAcc accumulates y[lo:hi] += Σ_o x[o]·A[o, lo:hi] for
// row-major A (m×k), skipping zero x[o] rows, with each element's
// additions in ascending o order — the FC backward input-gradient
// column kernel. Quads of nonzero coefficients share one
// read-modify-write sweep of y; any quad with a zero falls back to
// the reference per-row passes, which produce the identical
// per-element add sequence.
func MatVecTAcc(y, a, x []float32, k, lo, hi int) {
	m := len(x)
	if len(a) != m*k || lo < 0 || hi > k || lo > hi || len(y) < hi {
		panic("tensor: MatVecTAcc dimension mismatch")
	}
	yy := y[lo:hi]
	o := 0
	for ; o+4 <= m; o += 4 {
		g0, g1, g2, g3 := x[o], x[o+1], x[o+2], x[o+3]
		if g0 != 0 && g1 != 0 && g2 != 0 && g3 != 0 {
			r0 := a[(o+0)*k+lo : (o+0)*k+hi]
			r1 := a[(o+1)*k+lo : (o+1)*k+hi]
			r2 := a[(o+2)*k+lo : (o+2)*k+hi]
			r3 := a[(o+3)*k+lo : (o+3)*k+hi]
			for i := range yy {
				s := yy[i]
				s += g0 * r0[i]
				s += g1 * r1[i]
				s += g2 * r2[i]
				s += g3 * r3[i]
				yy[i] = s
			}
			continue
		}
		for q := 0; q < 4; q++ {
			g := x[o+q]
			if g == 0 {
				continue
			}
			row := a[(o+q)*k+lo : (o+q)*k+hi]
			for i, wv := range row {
				yy[i] += g * wv
			}
		}
	}
	for ; o < m; o++ {
		g := x[o]
		if g == 0 {
			continue
		}
		row := a[o*k+lo : o*k+hi]
		for i, wv := range row {
			yy[i] += g * wv
		}
	}
}

// matVecTTileW is the column width of one MatVecTAccRows tile: two
// 8-lane vectors.
const matVecTTileW = 16

// MatVecTAccRows is MatVecTAcc for rows coefficient vectors at once:
// for each r < rows, y[r·k+lo : r·k+hi] += Σ_o x[r·m+o]·A[o, lo:hi]
// for row-major A (m×k), the FC backward input gradient of a group of
// rows. Row r is bit-identical to MatVecTAcc of its x row into its y
// row: each element receives, for o ascending, one add of x·A per
// nonzero coefficient, and nothing for a zero one (NaN is nonzero).
//
// With AVX, blocks of four rows run in 4×16 tiles that share each load
// of A between the four rows and skip a zero coefficient with a blend
// that keeps the old sum, so no branch depends on the data; columns
// past the last whole tile, rows past the last whole block, and the
// portable path run MatVecTAcc row by row.
func MatVecTAccRows(y, a, x []float32, rows, m, k, lo, hi int) {
	if len(a) != m*k || len(x) < rows*m || len(y) < rows*k || lo < 0 || hi > k || lo > hi {
		panic("tensor: MatVecTAccRows dimension mismatch")
	}
	r := 0
	if useAVX && m > 0 {
		tiles := lo + (hi-lo)/matVecTTileW*matVecTTileW
		for ; r+4 <= rows; r += 4 {
			for i := lo; i < tiles; i += matVecTTileW {
				matVecT4x16AVX(&y[r*k+i], k, &a[i], k, &x[r*m], m, m)
			}
			for q := r; q < r+4 && tiles < hi; q++ {
				MatVecTAcc(y[q*k:(q+1)*k], a, x[q*m:(q+1)*m], k, tiles, hi)
			}
		}
	}
	for ; r < rows; r++ {
		MatVecTAcc(y[r*k:(r+1)*k], a, x[r*m:(r+1)*m], k, lo, hi)
	}
}
