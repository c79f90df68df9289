// Package sparsity implements the paper's communication-aware
// structured sparsification: group-Lasso regularization (Eq. 1–3)
// over the n×n core-block partition of every layer's weights, with a
// per-block sparsity-strength matrix.
//
// Two strength policies reproduce the paper's two schemes:
//
//   - SS (structured sparsified): every block of a layer shares one
//     strength — distance-oblivious (UniformStrength).
//   - SS_Mask (communication-aware): a block's strength scales with
//     the mesh hop distance between the producing and consuming cores
//     (DistanceStrength, the paper's Fig. 6(a) factor mask), so the
//     blocks that would cause long-distance NoC traffic are pruned
//     first while diagonal (same-core) blocks are never pressured.
//
// After training, Threshold zeroes the blocks whose learned norms
// collapsed and returns the per-layer partition.BlockMask that the
// traffic model consumes.
package sparsity

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"learn2scale/internal/nn"
	"learn2scale/internal/parallel"
	"learn2scale/internal/partition"
	"learn2scale/internal/topology"
)

// LayerGroups is the core-block structure of one weight tensor.
// Weights are OIHW for conv (KH=KW=K) and (out, in) for FC (KH=KW=1).
// Block (i, j) holds the weights connecting input units produced by
// core i to output units owned by core j.
type LayerGroups struct {
	Name      string
	Param     *nn.Param
	OutRanges []partition.Range // output channels/neurons per core
	InRanges  []partition.Range // input units per core
	InUnits   int               // total input units (channels or neurons)
	KH, KW    int
}

// NewLayerGroups builds the block structure for one parameter.
func NewLayerGroups(name string, p *nn.Param, outRanges, inRanges []partition.Range, inUnits, kh, kw int) LayerGroups {
	lg := LayerGroups{
		Name: name, Param: p,
		OutRanges: outRanges, InRanges: inRanges,
		InUnits: inUnits, KH: kh, KW: kw,
	}
	// The weight tensor must be (outTotal × inUnits × KH × KW).
	outTotal := 0
	for _, r := range outRanges {
		if r.Hi > outTotal {
			outTotal = r.Hi
		}
	}
	if want := outTotal * inUnits * kh * kw; p.W.Len() != want {
		panic(fmt.Sprintf("sparsity: %s: param has %d weights, block structure implies %d",
			name, p.W.Len(), want))
	}
	return lg
}

// Cores returns the number of cores (and thus blocks per side).
func (lg LayerGroups) Cores() int { return len(lg.OutRanges) }

// forSpans invokes fn with the contiguous flat weight ranges
// [lo, hi) making up block (i, j): the input units of one core are
// consecutive, so each output unit owned by core j contributes one
// unbroken run of InRanges[i].Len()·KH·KW weights. Scanning spans
// instead of single indices turns the block walks into straight slice
// loops; the element order (output unit ascending, then input unit,
// then kernel offset) is exactly the order the per-index walk visited.
func (lg LayerGroups) forSpans(i, j int, fn func(lo, hi int)) {
	kk := lg.KH * lg.KW
	spanLo := lg.InRanges[i].Lo * kk
	spanHi := lg.InRanges[i].Hi * kk
	if spanLo == spanHi {
		return
	}
	for o := lg.OutRanges[j].Lo; o < lg.OutRanges[j].Hi; o++ {
		rowBase := o * lg.InUnits * kk
		fn(rowBase+spanLo, rowBase+spanHi)
	}
}

// BlockSize returns the number of weights in block (i, j).
func (lg LayerGroups) BlockSize(i, j int) int {
	return lg.OutRanges[j].Len() * lg.InRanges[i].Len() * lg.KH * lg.KW
}

// ZeroBlock clears every weight of block (i, j) in place. The fault
// experiments use it to express an undelivered activation transfer:
// zero-filled inputs from core i contribute nothing to core j's
// outputs, which is exactly what zeroing the (i, j) weight block
// computes.
func (lg LayerGroups) ZeroBlock(i, j int) {
	w := lg.Param.W.Data
	lg.forSpans(i, j, func(lo, hi int) { clear(w[lo:hi]) })
}

// BlockNorm returns the L2 norm of block (i, j) — Eq. (3).
func (lg LayerGroups) BlockNorm(i, j int) float64 {
	s := 0.0
	w := lg.Param.W.Data
	lg.forSpans(i, j, func(lo, hi int) {
		for _, v := range w[lo:hi] {
			f := float64(v)
			s += f * f
		}
	})
	return math.Sqrt(s)
}

// UniformStrength returns the SS strength matrix: 1 everywhere.
func UniformStrength(n int) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			s[i][j] = 1
		}
	}
	return s
}

// DistanceStrength returns the SS_Mask strength matrix for the mesh:
// strength(i,j) ∝ hop distance(i,j), normalized so the matrix mean is
// 1 (the same total regularization pressure as UniformStrength,
// redistributed toward distant pairs). Diagonal blocks get 0 — data
// that stays on its own core costs nothing and is never pruned for
// communication's sake.
func DistanceStrength(m topology.Mesh) [][]float64 {
	n := m.Nodes()
	d := m.DistanceMatrix()
	total := 0
	for i := range d {
		for j := range d[i] {
			total += d[i][j]
		}
	}
	if total == 0 {
		return UniformStrength(n)
	}
	scale := float64(n*n) / float64(total)
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			s[i][j] = float64(d[i][j]) * scale
		}
	}
	return s
}

// GroupLasso is the structured regularizer of Eq. (1): it adds
// λ·Σ_l Σ_ij strength(i,j)·√|b|·‖W_b^l‖ to the objective. It
// implements nn.Regularizer.
type GroupLasso struct {
	Layers   []LayerGroups
	Strength [][]float64 // shared n×n strength matrix
	Lambda   float64
	normEps  float64
}

// NewGroupLasso creates the regularizer. strength must be n×n where n
// matches every layer's core count.
func NewGroupLasso(layers []LayerGroups, strength [][]float64, lambda float64) *GroupLasso {
	for _, lg := range layers {
		if lg.Cores() != len(strength) {
			panic(fmt.Sprintf("sparsity: layer %s has %d cores, strength matrix %d",
				lg.Name, lg.Cores(), len(strength)))
		}
	}
	return &GroupLasso{Layers: layers, Strength: strength, Lambda: lambda, normEps: 1e-8}
}

// Penalty implements nn.Regularizer. Block norms are computed in
// parallel; per-layer partial sums fold one block row at a time in
// fixed (i-ascending) order, so the result is identical at every
// worker count.
func (g *GroupLasso) Penalty() float64 {
	total := 0.0
	for _, lg := range g.Layers {
		n := lg.Cores()
		total += parallel.MapReduce(n*n, n, 0.0,
			func(lo, hi int) float64 {
				s := 0.0
				for b := lo; b < hi; b++ {
					i, j := b/n, b%n
					st := g.Strength[i][j]
					if st == 0 {
						continue
					}
					sz := lg.BlockSize(i, j)
					if sz == 0 {
						continue
					}
					s += g.Lambda * st * math.Sqrt(float64(sz)) * lg.BlockNorm(i, j)
				}
				return s
			},
			func(acc, v float64) float64 { return acc + v })
	}
	return total
}

// AddGrad implements nn.Regularizer: the (sub)gradient of the group
// Lasso term, λ·s_ij·√|b|·w/‖W_b‖, accumulated into each parameter's
// gradient buffer.
func (g *GroupLasso) AddGrad() {
	for _, lg := range g.Layers {
		lg := lg
		n := lg.Cores()
		w := lg.Param.W.Data
		gr := lg.Param.Grad().Data
		// Blocks partition the weight tensor, so each gradient element
		// gets exactly one accumulation: block order cannot matter.
		parallel.For(n*n, func(b int) {
			i, j := b/n, b%n
			st := g.Strength[i][j]
			if st == 0 {
				return
			}
			sz := lg.BlockSize(i, j)
			if sz == 0 {
				return
			}
			norm := lg.BlockNorm(i, j)
			if norm < g.normEps {
				return // subgradient 0 at the origin
			}
			coef := float32(g.Lambda * st * math.Sqrt(float64(sz)) / norm)
			lg.forSpans(i, j, func(lo, hi int) {
				gs, ws := gr[lo:hi], w[lo:hi]
				for idx := range gs {
					gs[idx] += coef * ws[idx]
				}
			})
		})
	}
}

// Threshold zeroes every block whose RMS weight magnitude fell below
// rel × the layer's overall RMS, and returns one BlockMask per layer
// (true = block survives). Safety rule: a destination core always
// keeps its strongest input block — pruning every block of a column
// would disconnect that core's output neurons entirely (dead classes
// in a classifier layer), which no amount of sparsity justifies. The
// pruning is applied in place to the network weights, so subsequent
// inference genuinely skips the eliminated connections.
func (g *GroupLasso) Threshold(rel float64) []partition.BlockMask {
	masks := make([]partition.BlockMask, len(g.Layers))
	for li, lg := range g.Layers {
		n := lg.Cores()
		layerRMS := rmsOf(lg.Param.W.Data)
		mask := make(partition.BlockMask, n)
		keep := make([][]bool, n) // keep[i][j], indexed like mask
		for i := 0; i < n; i++ {
			mask[i] = make([]bool, n)
			keep[i] = make([]bool, n)
		}
		// Pass 1: decide survivors; remember each column's strongest
		// block as a fallback. Columns touch disjoint keep entries, so
		// they evaluate in parallel.
		parallel.For(n, func(j int) {
			if lg.OutRanges[j].Len() == 0 {
				return
			}
			bestI, bestRMS := -1, -1.0
			colAlive := false
			for i := 0; i < n; i++ {
				sz := lg.BlockSize(i, j)
				if sz == 0 {
					continue
				}
				rms := lg.BlockNorm(i, j) / math.Sqrt(float64(sz))
				if rms > bestRMS {
					bestRMS, bestI = rms, i
				}
				if rms >= rel*layerRMS {
					keep[i][j] = true
					colAlive = true
				}
			}
			if !colAlive && bestI >= 0 {
				keep[bestI][j] = true
			}
		})
		// Pass 2: apply; blocks are disjoint weight ranges.
		w := lg.Param.W.Data
		parallel.For(n*n, func(b int) {
			i, j := b/n, b%n
			if lg.BlockSize(i, j) == 0 {
				return
			}
			if keep[i][j] {
				mask[i][j] = true
				return
			}
			lg.forSpans(i, j, func(lo, hi int) { clear(w[lo:hi]) })
		})
		masks[li] = mask
	}
	return masks
}

// PrunableGroups counts the blocks (across all regularized layers)
// whose RMS weight magnitude currently sits below rel × the layer's
// overall RMS — the blocks Threshold(rel) would zero, before its
// keep-strongest-per-column safety rule. Tracked per epoch, it shows
// group-Lasso pressure progressively collapsing block norms during
// sparsified training. Deterministic at every worker count (same fold
// discipline as Penalty).
func (g *GroupLasso) PrunableGroups(rel float64) int {
	total := 0
	for _, lg := range g.Layers {
		lg := lg
		n := lg.Cores()
		layerRMS := rmsOf(lg.Param.W.Data)
		total += parallel.MapReduce(n*n, n, 0,
			func(lo, hi int) int {
				c := 0
				for b := lo; b < hi; b++ {
					i, j := b/n, b%n
					sz := lg.BlockSize(i, j)
					if sz == 0 {
						continue
					}
					rms := lg.BlockNorm(i, j) / math.Sqrt(float64(sz))
					if rms < rel*layerRMS {
						c++
					}
				}
				return c
			},
			func(acc, v int) int { return acc + v })
	}
	return total
}

// GroupCount returns the total number of non-empty blocks across all
// regularized layers — the denominator for PrunableGroups.
func (g *GroupLasso) GroupCount() int {
	total := 0
	for _, lg := range g.Layers {
		n := lg.Cores()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if lg.BlockSize(i, j) > 0 {
					total++
				}
			}
		}
	}
	return total
}

// UnstructuredPrune zeroes the fraction frac of smallest-magnitude
// weights of the layer, regardless of block structure — the
// "non-structured sparse network" the paper contrasts its structured
// approach against (§IV.C.1: randomly distributed zeros are not
// hardware-friendly). Returns the number of weights zeroed.
func UnstructuredPrune(lg LayerGroups, frac float64) int {
	w := lg.Param.W.Data
	if frac <= 0 || len(w) == 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	mags := make([]float64, len(w))
	for i, v := range w {
		mags[i] = math.Abs(float64(v))
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	cut := sorted[int(float64(len(sorted)-1)*frac)]
	n := 0
	for i := range w {
		if mags[i] <= cut && n < int(frac*float64(len(w))) {
			w[i] = 0
			n++
		}
	}
	return n
}

// UnitTraffic computes the block mask at *input-unit* granularity:
// block (i, j) is active iff any weight connecting any of core i's
// input units to core j's outputs is nonzero. For block-structured
// zeros this equals the learned mask; for unstructured zeros it shows
// how little traffic random sparsity eliminates — a column only stops
// being transmitted when every one of its weights happens to be zero.
func UnitTraffic(lg LayerGroups) partition.BlockMask {
	n := lg.Cores()
	mask := make(partition.BlockMask, n)
	w := lg.Param.W.Data
	for i := 0; i < n; i++ {
		mask[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if lg.BlockSize(i, j) == 0 {
				continue
			}
			active := false
			lg.forSpans(i, j, func(lo, hi int) {
				if active {
					return
				}
				for _, v := range w[lo:hi] {
					if v != 0 {
						active = true
						break
					}
				}
			})
			mask[i][j] = active
		}
	}
	return mask
}

// Projector returns a function that zeroes every pruned block of
// every layer, given Threshold's masks (indexed like g.Layers). Used
// as an nn.Trainer AfterStep hook so fine-tuning after pruning keeps
// the eliminated blocks at exactly zero.
func (g *GroupLasso) Projector(masks []partition.BlockMask) func() {
	if len(masks) != len(g.Layers) {
		panic(fmt.Sprintf("sparsity: Projector got %d masks for %d layers", len(masks), len(g.Layers)))
	}
	return func() {
		for li, lg := range g.Layers {
			lg := lg
			m := masks[li]
			w := lg.Param.W.Data
			n := lg.Cores()
			// Pruned blocks are disjoint weight ranges; zero them in
			// parallel (this runs after every fine-tuning step).
			parallel.For(n*n, func(b int) {
				i, j := b/n, b%n
				if m[i][j] || lg.BlockSize(i, j) == 0 {
					return
				}
				lg.forSpans(i, j, func(lo, hi int) { clear(w[lo:hi]) })
			})
		}
	}
}

func rmsOf(w []float32) float64 {
	if len(w) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range w {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s / float64(len(w)))
}

// OccupancyString renders a block mask as the paper's Fig. 6(b)-style
// 0/1 grid (rows = destination core, columns = source core).
func OccupancyString(m partition.BlockMask) string {
	var b strings.Builder
	for j := range m {
		for i := range m {
			if i > 0 {
				b.WriteByte(' ')
			}
			if m[i][j] {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ForPlan builds the group structure of every regularized layer of a
// trained/trainable network according to plan. The first synaptic
// layer is skipped (its input is broadcast, so its blocks never cause
// traffic), as are layers whose partition gives a core no inputs or
// outputs. Grouped convolutions are rejected: the sparsified schemes
// apply to the unmodified dense topology.
func ForPlan(net *nn.Network, plan *partition.Plan, strength [][]float64, lambda float64) (*GroupLasso, error) {
	var synaptic []nn.Layer
	for _, l := range net.Layers {
		switch l.(type) {
		case *nn.Conv2D, *nn.FullyConnected:
			synaptic = append(synaptic, l)
		}
	}
	if len(synaptic) != len(plan.Layers) {
		return nil, fmt.Errorf("sparsity: network has %d synaptic layers, plan has %d",
			len(synaptic), len(plan.Layers))
	}
	var groups []LayerGroups
	for k := 1; k < len(synaptic); k++ {
		lp := plan.Layers[k]
		if lp.InRanges == nil {
			continue
		}
		switch t := synaptic[k].(type) {
		case *nn.Conv2D:
			if t.Groups() != 1 {
				return nil, fmt.Errorf("sparsity: %s is a grouped conv; sparsified schemes need the dense topology", t.Name())
			}
			g := t.Geom()
			groups = append(groups, NewLayerGroups(t.Name(), t.Weight(),
				lp.OutRanges, lp.InRanges, g.InC, g.KH, g.KW))
		case *nn.FullyConnected:
			in, _ := t.InOut()
			groups = append(groups, NewLayerGroups(t.Name(), t.Weight(),
				lp.OutRanges, lp.InRanges, in, 1, 1))
		}
	}
	return NewGroupLasso(groups, strength, lambda), nil
}

// MasksByLayer re-indexes Threshold's output to synaptic-layer
// indices of the plan: masks[k] is nil for unregularized layers (k=0)
// and the learned mask otherwise.
func MasksByLayer(g *GroupLasso, plan *partition.Plan, thresholded []partition.BlockMask) []partition.BlockMask {
	out := make([]partition.BlockMask, len(plan.Layers))
	li := 0
	for k := 1; k < len(plan.Layers) && li < len(thresholded); k++ {
		if plan.Layers[k].InRanges == nil {
			continue
		}
		if li < len(g.Layers) {
			out[k] = thresholded[li]
			li++
		}
	}
	return out
}
