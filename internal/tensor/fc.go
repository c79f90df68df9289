package tensor

// Output-lane FC kernels: the fully-connected forward pass of frozen
// (inference-only) weights, Y = b + X·Wᵀ, at float32 and int16.
//
// Like a Diannao core, which computes a tile of output neurons in
// parallel from each broadcast input, the kernels put output neurons
// on the vector lanes. W (n outputs × k inputs) is packed once into
// 32-output panels stored p-major — panel jp holds, for every input p,
// the 32 weights W[32·jp+c][p] side by side — with the outputs past n
// zero-padded. At each input step the kernel broadcasts x[p] against
// the step's four 8-lane weight vectors into four independent
// accumulators, so a lone request fills every lane. Groups of request
// rows run in blocks of four that share each weight load (half a
// panel per pass, eight accumulators); a ragged remainder runs one row
// at a time. Panels are the outer loop, so a panel stays in cache
// while every row block reads it.
//
// float32 determinism: every output lane is seeded with its bias and
// receives its k products one `+=` at a time in ascending p, each the
// weight times the input, with no FMA and no skip-zero test. That is
// MatVecAcc's per-output sequence, so FCForward is bit-identical to it
// for every operand — a −0 bias, or an Inf/NaN input meeting a zero
// weight, included — and panel ranges tile bit-identically over
// workers.
//
// int16: the packed panel interleaves input pairs, lane c of pair step
// p2 holding (W[c][2·p2], W[c][2·p2+1]), and the kernel broadcasts the
// input pair (x[2·p2], x[2·p2+1]) through VPMADDWD, which sums each
// lane's two products into its int32 accumulator. Accumulation is
// exact under the quantizer's AccQMax clamp, so FCForwardInt16 equals
// the naive integer dot for any order.

const (
	fcLanes    = 8           // float32/int32 lanes per AVX vector
	fcPanelW   = 4 * fcLanes // outputs per packed panel: four accumulators
	fcRowBlock = 4           // request rows sharing each weight load
)

// FCPanelW is the number of outputs in one packed FC panel.
const FCPanelW = fcPanelW

// FCPanels returns the number of 32-output panels covering n outputs:
// the unit FCForward and FCForwardInt16 split over workers.
func FCPanels(n int) int { return (n + fcPanelW - 1) / fcPanelW }

// PackFCSize returns the length PackFCRange needs for an n×k weight
// matrix.
func PackFCSize(n, k int) int { return FCPanels(n) * fcPanelW * k }

// fcPackStep is the input count of one PackFCRange block: a block of
// fcPackStep inputs × 32 outputs is 1 KB of the panel, so its strided
// writes stay in L1 while each weight row is read in order.
const fcPackStep = 8

// PackFCRange packs panels [lo, hi) of row-major W (n outputs × k
// inputs) into the output-lane panels FCForward reads:
// dst[jp·32k + p·32 + c] = W[32·jp+c][p], with the outputs past n
// zero. It writes only those panels, so disjoint panel ranges are safe
// to split across workers.
// Each panel is transposed in blocks of 8 inputs, two weight rows per
// step; only a ragged last panel is cleared first, for its padding.
func PackFCRange(dst, w []float32, n, k, lo, hi int) {
	if len(w) != n*k || len(dst) < PackFCSize(n, k) {
		panic("tensor: PackFC size mismatch")
	}
	if lo < 0 || hi > FCPanels(n) || lo > hi {
		panic("tensor: PackFC panel range out of bounds")
	}
	for jp := lo; jp < hi; jp++ {
		o0 := jp * fcPanelW
		rows := min(fcPanelW, n-o0)
		panel := dst[jp*fcPanelW*k : (jp+1)*fcPanelW*k]
		if rows < fcPanelW {
			clear(panel)
		}
		p0 := 0
		for ; p0+fcPackStep <= k; p0 += fcPackStep {
			blk := panel[p0*fcPanelW : (p0+fcPackStep)*fcPanelW]
			c := 0
			for ; c+2 <= rows; c += 2 {
				b := (o0+c)*k + p0
				r, s := w[b:b+fcPackStep], w[b+k:b+k+fcPackStep]
				d := blk[c : c+7*fcPanelW+2]
				d[0*fcPanelW], d[0*fcPanelW+1] = r[0], s[0]
				d[1*fcPanelW], d[1*fcPanelW+1] = r[1], s[1]
				d[2*fcPanelW], d[2*fcPanelW+1] = r[2], s[2]
				d[3*fcPanelW], d[3*fcPanelW+1] = r[3], s[3]
				d[4*fcPanelW], d[4*fcPanelW+1] = r[4], s[4]
				d[5*fcPanelW], d[5*fcPanelW+1] = r[5], s[5]
				d[6*fcPanelW], d[6*fcPanelW+1] = r[6], s[6]
				d[7*fcPanelW], d[7*fcPanelW+1] = r[7], s[7]
			}
			if c < rows {
				for q, v := range w[(o0+c)*k+p0 : (o0+c)*k+p0+fcPackStep] {
					blk[q*fcPanelW+c] = v
				}
			}
		}
		for ; p0 < k; p0++ {
			for c := 0; c < rows; c++ {
				panel[p0*fcPanelW+c] = w[(o0+c)*k+p0]
			}
		}
	}
}

// FCForward computes output panels [lo, hi) of the m request rows
// Y = b + X·Wᵀ: y (m×n) row i gets bias plus W times x row i (m×k),
// for W packed by PackFCRange (wp). Outputs outside the panels are
// untouched, so disjoint panel ranges are safe to split across
// workers. Row i of y is bit-identical to MatVecAcc of x row i into a
// copy of the bias.
func FCForward(y, x, wp, bias []float32, m, k, n, lo, hi int) {
	if len(y) != m*n || len(x) != m*k || len(bias) != n || len(wp) < PackFCSize(n, k) {
		panic("tensor: FCForward dimension mismatch")
	}
	if lo < 0 || hi > FCPanels(n) || lo > hi {
		panic("tensor: FCForward panel range out of bounds")
	}
	var tile [fcRowBlock * fcPanelW]float32
	for jp := lo; jp < hi; jp++ {
		j0 := jp * fcPanelW
		w := min(fcPanelW, n-j0)
		panel := wp[jp*fcPanelW*k : (jp+1)*fcPanelW*k]
		for i := 0; i < m; i += fcRowBlock {
			rows := min(fcRowBlock, m-i)
			// A whole panel accumulates in place; a ragged one through
			// the tile, whose padded lanes are never copied back.
			dst, ldy := y[i*n+j0:], n
			if w < fcPanelW {
				dst, ldy = tile[:], fcPanelW
			}
			for r := 0; r < rows; r++ {
				copy(dst[r*ldy:r*ldy+w], bias[j0:j0+w])
			}
			xr := x[i*k:]
			if rows == fcRowBlock {
				fcRows4(dst, ldy, panel, xr, k)
				fcRows4(dst[fcPanelW/2:], ldy, panel[fcPanelW/2:], xr, k)
			} else {
				for r := 0; r < rows; r++ {
					fcRow(dst[r*ldy:], panel, xr[r*k:], k)
				}
			}
			if w < fcPanelW {
				for r := 0; r < rows; r++ {
					copy(y[(i+r)*n+j0:(i+r)*n+j0+w], tile[r*fcPanelW:r*fcPanelW+w])
				}
			}
		}
	}
}

// fcRow accumulates the 32 outputs at y with one request row x over k
// input steps of the panel at w.
func fcRow(y, w, x []float32, k int) {
	if useAVX {
		fcRowAVX(&y[0], &w[0], &x[0], k)
		return
	}
	fcRowsGo(y, 0, 1, w, fcPanelW, x, k)
}

// fcRows4 accumulates 16 outputs of four request rows — y rows at
// stride ldy, x rows at stride k — over k input steps of the half
// panel at w.
func fcRows4(y []float32, ldy int, w, x []float32, k int) {
	if useAVX {
		fcRows4AVX(&y[0], ldy, &w[0], &x[0], k)
		return
	}
	fcRowsGo(y, ldy, fcRowBlock, w, fcPanelW/2, x, k)
}

// fcRowsGo is the portable body of both kernels: per lane, ascending-p
// `s += w·x` on a running sum held in a local, as in MatVecAcc. The
// compiler picks the operand order of that add, which decides the
// payload when two NaNs meet: a plain build keeps the running sum's,
// as the AVX bodies do, but a fuzz-instrumented build keeps the
// product's, so only there can a result differ from the AVX bodies,
// and only in a NaN's payload.
func fcRowsGo(y []float32, ldy, rows int, w []float32, width int, x []float32, k int) {
	for r := 0; r < rows; r++ {
		xr := x[r*k : (r+1)*k]
		for c := range width {
			s := y[r*ldy+c]
			for p, xv := range xr {
				s += w[p*fcPanelW+c] * xv
			}
			y[r*ldy+c] = s
		}
	}
}

// fcPairStep is the int16 count of one packed pair step of a panel:
// 32 lanes × 2 inputs.
const fcPairStep = fcPanelW * gemmPairW

// PackFCSizeInt16 returns the length of the int16 output-lane panels
// of an n×k weight matrix.
func PackFCSizeInt16(n, k int) int { return FCPanels(n) * PackPairs(k) * fcPairStep }

// PackFCIndexInt16 returns where the int16 output-lane panels of a
// k-input weight matrix store W[o][p]: lane o%32 of pair step p/2 in
// panel o/32, the pair's first or second element. A producer writes
// each weight straight into its slot; a zeroed buffer already holds
// the padding past the last output and after an odd k's last input.
func PackFCIndexInt16(k, o, p int) int {
	return (o/fcPanelW)*PackPairs(k)*fcPairStep + (p/gemmPairW)*fcPairStep + (o%fcPanelW)*gemmPairW + p%gemmPairW
}

// FCForwardInt16 computes output panels [lo, hi) of the exact int32
// product C = X·Wᵀ: c (m×n) row i gets W times the int16 request row
// i of x (m×k), for W packed at PackFCIndexInt16 (wp). Outputs
// outside the panels are untouched. Operands within ±AccQMax(k) keep
// every accumulator exact, so the result equals the naive integer dot.
func FCForwardInt16(c []int32, x, wp []int16, m, k, n, lo, hi int) {
	if len(c) != m*n || len(x) != m*k || len(wp) < PackFCSizeInt16(n, k) {
		panic("tensor: FCForwardInt16 dimension mismatch")
	}
	if lo < 0 || hi > FCPanels(n) || lo > hi {
		panic("tensor: FCForwardInt16 panel range out of bounds")
	}
	kp2 := PackPairs(k)
	full := k / gemmPairW // whole input pairs; an odd k's last input is added below
	var tile [fcRowBlock * fcPanelW]int32
	for jp := lo; jp < hi; jp++ {
		j0 := jp * fcPanelW
		w := min(fcPanelW, n-j0)
		panel := wp[jp*kp2*fcPairStep : (jp+1)*kp2*fcPairStep]
		for i := 0; i < m; i += fcRowBlock {
			rows := min(fcRowBlock, m-i)
			clear(tile[:])
			if full > 0 {
				xr := x[i*k:]
				if rows == fcRowBlock {
					fcRows4Int16(tile[:], panel, xr, k, full)
					fcRows4Int16(tile[fcPanelW/2:], panel[fcPanelW/2*gemmPairW:], xr, k, full)
				} else {
					for r := 0; r < rows; r++ {
						fcRowInt16(tile[r*fcPanelW:], panel, xr[r*k:], full)
					}
				}
			}
			if k%gemmPairW != 0 {
				last := panel[full*fcPairStep:]
				for r := 0; r < rows; r++ {
					xv := int32(x[(i+r)*k+k-1])
					t := tile[r*fcPanelW : (r+1)*fcPanelW]
					for l := range t {
						t[l] += int32(last[l*gemmPairW]) * xv
					}
				}
			}
			for r := 0; r < rows; r++ {
				copy(c[(i+r)*n+j0:(i+r)*n+j0+w], tile[r*fcPanelW:r*fcPanelW+w])
			}
		}
	}
}

// fcRowInt16 accumulates the 32 int32 outputs at c with one request
// row x over kp whole input pairs of the panel at w.
func fcRowInt16(c []int32, w, x []int16, kp int) {
	if useAVX2 {
		fcRowInt16AVX2(&c[0], &w[0], &x[0], kp)
		return
	}
	fcRowsInt16Go(c, 1, w, fcPanelW, x, 0, kp)
}

// fcRows4Int16 accumulates 16 int32 outputs of four request rows — c
// rows at stride 32, x rows at stride ldx — over kp whole input pairs
// of the half panel at w.
func fcRows4Int16(c []int32, w, x []int16, ldx, kp int) {
	if useAVX2 {
		fcRows4Int16AVX2(&c[0], &w[0], &x[0], ldx, kp)
		return
	}
	fcRowsInt16Go(c, fcRowBlock, w, fcPanelW/2, x, ldx, kp)
}

// fcRowsInt16Go is the portable body of both int16 kernels; integer
// accumulation is exact, so it agrees with the AVX2 bodies exactly.
func fcRowsInt16Go(c []int32, rows int, w []int16, width int, x []int16, ldx, kp int) {
	for r := 0; r < rows; r++ {
		cr := c[r*fcPanelW : r*fcPanelW+width]
		xr := x[r*ldx:]
		for p2 := 0; p2 < kp; p2++ {
			x0, x1 := int32(xr[2*p2]), int32(xr[2*p2+1])
			step := w[p2*fcPairStep:]
			for l := range cr {
				cr[l] += int32(step[l*gemmPairW])*x0 + int32(step[l*gemmPairW+1])*x1
			}
		}
	}
}
