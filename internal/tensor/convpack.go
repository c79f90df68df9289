package tensor

import "math/bits"

// Fused conv B operand: the im2col patch matrix of a CHW input written
// straight into the packed-B panels the GEMM microkernels read, so a
// convolution forward never materializes the row-major patch matrix
// and never copies it a second time.
//
// Patch row p = (c·KH + kh)·KW + kw and patch column j = oh·OutW + ow
// hold input[c][oh·Stride − Pad + kh][ow·Stride − Pad + kw], or zero
// where that position falls in the padding. Panel jp covers columns
// [16·jp, 16·jp+16), and each of its rows is one 16-way gather from a
// single input channel.

// Im2ColPacked writes column panels [loPanel, hiPanel) of the patch
// matrix of input (CHW, geometry g) in PackB's panel layout: dst ends
// up holding, byte for byte, what Im2Col followed by PackBRange over
// the same panels writes, ragged last panel's zero columns included.
// dst must hold PackBSize(g.InC·g.KH·g.KW, g.OutH·g.OutW) elements.
// Panels are disjoint in dst, so a panel range is safe to split across
// workers.
func Im2ColPacked(dst, input []float32, g ConvGeom, loPanel, hiPanel int) {
	im2colPacked(dst, input, g, loPanel, hiPanel, 0)
}

// Im2ColPackedInt16 is Im2ColPacked over int16 data in
// PackBRangeInt16's pair-interleaved panel layout, the zero-padded pair
// step of an odd patch depth included: dst ends up holding, byte for
// byte, what im2col over int16 followed by PackBRangeInt16 writes. dst
// must hold PackBSizeInt16(g.InC·g.KH·g.KW, g.OutH·g.OutW) elements.
func Im2ColPackedInt16(dst, input []int16, g ConvGeom, loPanel, hiPanel int) {
	im2colPacked(dst, input, g, loPanel, hiPanel, 1)
}

// tapBlock is the number of kernel taps whose column tables
// im2colPacked builds at a time: 64 tables take about 4.3 KB of stack,
// and an 11×11 kernel takes two blocks.
const tapBlock = 64

// panelTap is one kernel tap's view of one panel: the channel offset
// each of the 16 columns reads, and the dead columns, whose tap lies
// in the padding or which lie past a ragged last panel's edge; a dead
// column reads offset 0 and is then zeroed.
type panelTap struct {
	off  [gemmPanelW]int32
	dead uint16
}

// im2colPacked is the element-type-generic body. pairShift is log2 of
// the k steps interleaved per panel row: 0 for the float32 layout
// (patch row p at p·16, columns adjacent), 1 for the int16 one (patch
// row p at (p/2)·32 + p%2, columns two apart).
//
// Patch element (p, j) with p = (c·KH + kh)·KW + kw reads channel c at
// offset (ih0(j) + kh)·InW + iw0(j) + kw, where ih0 = oh·Stride − Pad
// and iw0 = ow·Stride − Pad place column j's window; whether that tap
// lies inside the input depends on (kh, kw, j) but not on c. So each
// panel works out its columns' offsets and dead columns once per tap,
// then walks its rows in order, channel by channel, each row a fixed
// 16-way gather followed by zeros over the dead columns.
func im2colPacked[T float32 | int16](dst, input []T, g ConvGeom, loPanel, hiPanel int, pairShift uint) {
	k := g.InC * g.KH * g.KW
	n := g.OutH * g.OutW
	np := PackPanels(n)
	lanes := 1 << pairShift
	steps := (k + lanes - 1) >> pairShift // panel rows, each lanes k steps wide
	rowLen := gemmPanelW * lanes
	panelLen := steps * rowLen
	if len(dst) < np*panelLen || len(input) != g.InC*g.InH*g.InW {
		panic("tensor: Im2ColPacked size mismatch")
	}
	if loPanel < 0 || hiPanel > np || loPanel > hiPanel {
		panic("tensor: Im2ColPacked panel range out of bounds")
	}
	chanSize := g.InH * g.InW
	taps := g.KH * g.KW
	var tab [tapBlock]panelTap
	for jp := loPanel; jp < hiPanel; jp++ {
		panel := dst[jp*panelLen : (jp+1)*panelLen]
		j0 := jp * gemmPanelW
		w := min(gemmPanelW, n-j0)
		if k < steps*lanes {
			// Odd int16 depth: the last pair step's second lane, which no
			// patch row fills, is zero.
			row := panel[(steps-1)*rowLen+1:]
			for j := 0; j < gemmPanelW; j++ {
				row[j<<pairShift] = 0
			}
		}
		var ih0, iw0 [gemmPanelW]int
		var origin [gemmPanelW]int32 // each column's window origin, ih0·InW + iw0
		inside := w == gemmPanelW    // every tap of every column lies inside the input
		for j := 0; j < w; j++ {
			oh, ow := (j0+j)/g.OutW, (j0+j)%g.OutW
			ih0[j], iw0[j] = oh*g.Stride-g.Pad, ow*g.Stride-g.Pad
			origin[j] = int32(ih0[j]*g.InW + iw0[j])
			inside = inside && ih0[j] >= 0 && ih0[j]+g.KH <= g.InH && iw0[j] >= 0 && iw0[j]+g.KW <= g.InW
		}
		if inside {
			// No padding in reach: tap (kh, kw) reads origin + kh·InW + kw.
			p := 0
			for c := 0; c < g.InC; c++ {
				chanIn := input[c*chanSize : (c+1)*chanSize]
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						row := panel[(p>>pairShift)*rowLen+p&(lanes-1):]
						gatherPanelRow(row, chanIn[kh*g.InW+kw:], &origin, pairShift)
						p++
					}
				}
			}
			continue
		}
		for t0 := 0; t0 < taps; t0 += tapBlock {
			block := tab[:min(tapBlock, taps-t0)]
			for i := range block {
				kh, kw := (t0+i)/g.KW, (t0+i)%g.KW
				pt := &block[i]
				pt.dead = 0
				for j := range gemmPanelW {
					ih, iw := ih0[j]+kh, iw0[j]+kw
					if j < w && ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
						pt.off[j] = int32(ih*g.InW + iw)
					} else {
						pt.off[j] = 0
						pt.dead |= 1 << j
					}
				}
			}
			for c := 0; c < g.InC; c++ {
				chanIn := input[c*chanSize : (c+1)*chanSize]
				for i := range block {
					p := c*taps + t0 + i
					row := panel[(p>>pairShift)*rowLen+p&(lanes-1):]
					gatherPanelRow(row, chanIn, &block[i].off, pairShift)
					for m := block[i].dead; m != 0; m &= m - 1 {
						row[bits.TrailingZeros16(m)<<pairShift] = 0
					}
				}
			}
		}
	}
}

// gatherPanelRow writes the 16 columns of one panel row,
// row[j<<pairShift] = chanIn[off[j]]. It is kept small so the gather
// runs out of registers.
func gatherPanelRow[T float32 | int16](row, chanIn []T, off *[gemmPanelW]int32, pairShift uint) {
	if pairShift == 0 {
		r := (*[gemmPanelW]T)(row)
		for j, o := range off {
			r[j] = chanIn[o]
		}
		return
	}
	r := (*[2*gemmPanelW - 1]T)(row)
	for j, o := range off {
		r[2*j] = chanIn[o]
	}
}
