// Package partition maps a network's layers onto the cores of a CMP
// and derives the two quantities the paper's evaluation rests on:
//
//   - per-core compute workloads (internal/nna.LayerWork) for every
//     synaptic layer, and
//   - per-layer-transition inter-core traffic matrices — how many bytes
//     core i must send core j so j can compute its partition of the
//     next layer.
//
// The partitioning follows the paper's kernel-wise scheme (Fig. 3):
// every core owns a contiguous slice of each layer's output channels
// (conv) or neurons (FC). The network input is broadcast to all cores,
// so the first synaptic layer induces no traffic; every later layer's
// traffic is controlled by its block mask: block (i, j) is nonzero iff
// any weight connecting core i's inputs to core j's outputs survives
// (dense = all blocks nonzero = full broadcast; structure-level
// grouping or learned block sparsity clears blocks and elides traffic).
package partition

import (
	"fmt"

	"learn2scale/internal/netzoo"
	"learn2scale/internal/nna"
	"learn2scale/internal/noc"
)

// Range is a half-open interval [Lo, Hi) of channel or neuron indices.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Overlaps reports whether r and o intersect.
func (r Range) Overlaps(o Range) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// Split partitions count indices into n balanced contiguous ranges.
// When count < n the trailing ranges are empty.
func Split(count, n int) []Range {
	if n <= 0 {
		panic(fmt.Sprintf("partition: Split over %d cores", n))
	}
	out := make([]Range, n)
	for i := 0; i < n; i++ {
		out[i] = Range{Lo: i * count / n, Hi: (i + 1) * count / n}
	}
	return out
}

// BlockMask marks which (source core, destination core) weight blocks
// of a layer are nonzero. Mask[i][j] == true means core j's outputs
// depend on core i's inputs, so i must send j its activations.
type BlockMask [][]bool

// DiagonalMask returns a mask with only i==j blocks set (perfectly
// grouped layer: no inter-core traffic).
func DiagonalMask(n int) BlockMask {
	m := make(BlockMask, n)
	for i := range m {
		m[i] = make([]bool, n)
		m[i][i] = true
	}
	return m
}

// LayerPartition is one synaptic layer mapped onto a block of cores:
// all of a Plan's cores, or one pipeline stage's (StageLayer). Its
// methods hold the per-layer rules — mask test, fan-in, per-core work
// and traffic bytes — for both.
type LayerPartition struct {
	Shape netzoo.LayerShape
	// OutRanges[c]: output channels (conv) or neurons (FC) of core c.
	OutRanges []Range
	// InRanges[c]: this layer's input units produced by core c —
	// channels for conv layers, flattened neurons for FC layers. Nil
	// for the first synaptic layer (network input is broadcast).
	InRanges []Range
	// InUnitValues: activation values per input unit (InH·InW for
	// conv, 1 for FC).
	InUnitValues int
	// Mask is the layer's block-sparsity pattern; nil means dense.
	Mask BlockMask
}

// blockActive reports whether producer core a's inputs feed core b.
func (lp *LayerPartition) blockActive(a, b int) bool {
	return lp.Mask == nil || lp.Mask[a][b]
}

// EffectiveFanIn returns the fan-in (input values per output neuron)
// of core c, honoring the block mask: inputs from cores whose block is
// zero are never fetched or multiplied.
func (lp *LayerPartition) EffectiveFanIn(c int) int {
	if lp.InRanges == nil {
		// First layer: full (possibly group-reduced) kernel volume.
		return lp.Shape.KernelVolume()
	}
	units := 0
	for a, r := range lp.InRanges {
		if lp.blockActive(a, c) {
			units += r.Len()
		}
	}
	if lp.Shape.Spec.Kind == netzoo.Conv {
		return units * lp.Shape.Spec.K * lp.Shape.Spec.K
	}
	return units
}

// CoreWork returns the nna workload of core c for the layer.
func (lp *LayerPartition) CoreWork(c, bytesPerValue int) nna.LayerWork {
	outC := lp.OutRanges[c].Len()
	if outC == 0 {
		return nna.LayerWork{}
	}
	fanIn := lp.EffectiveFanIn(c)
	if fanIn == 0 {
		return nna.LayerWork{}
	}
	if lp.Shape.Spec.Kind == netzoo.Conv {
		return nna.ConvWork(outC, lp.Shape.OutH, lp.Shape.OutW, fanIn,
			lp.Shape.InC, lp.Shape.InH, lp.Shape.InW, bytesPerValue)
	}
	return nna.FCWork(fanIn, outC, bytesPerValue)
}

// addTraffic adds the transition into the layer to t: producer core a
// (matrix index prodBase+a) sends its whole input slice to every core b
// (index consBase+b) that owns outputs and whose block from a is
// active. A layer with nil InRanges adds nothing (broadcast input).
func (lp *LayerPartition) addTraffic(t TrafficMatrix, prodBase, consBase, bytesPerValue int) {
	for a, in := range lp.InRanges {
		srcBytes := int64(in.Len()) * int64(lp.InUnitValues) * int64(bytesPerValue)
		if srcBytes == 0 {
			continue
		}
		for b, out := range lp.OutRanges {
			src, dst := prodBase+a, consBase+b
			if src != dst && out.Len() > 0 && lp.blockActive(a, b) {
				t[src][dst] += srcBytes
			}
		}
	}
}

// Plan is a whole network mapped onto n cores.
type Plan struct {
	Spec          netzoo.NetSpec
	Cores         int
	BytesPerValue int
	Layers        []LayerPartition
}

// NewPlan maps spec's synaptic layers onto cores. Grouped conv layers
// (structure-level parallelization) automatically get the block mask
// implied by their channel grouping; dense layers get a nil (full)
// mask that callers may replace with a learned pattern.
func NewPlan(spec netzoo.NetSpec, cores int) *Plan {
	if cores <= 0 {
		panic("partition: NewPlan needs at least one core")
	}
	p := &Plan{Spec: spec, Cores: cores, BytesPerValue: 2}
	syn := spec.SynapticShapes()
	for k, ls := range syn {
		lp := LayerPartition{Shape: ls, OutRanges: Split(ls.OutC, cores)}
		if k > 0 {
			prev := p.Layers[k-1]
			lp.InRanges, lp.InUnitValues = inputRanges(ls, prev.Shape, prev.OutRanges)
		}
		if g := ls.Spec.Groups; g > 1 && k > 0 {
			lp.Mask = groupMask(ls, lp, g, cores)
		}
		p.Layers = append(p.Layers, lp)
	}
	return p
}

// inputRanges derives the input-unit ranges of layer ls's producers
// from the producing layer's shape and output ranges: a conv layer's
// input channels are the producer's output channels (pooling preserves
// channel ownership), and an FC layer after a conv layer flattens each
// channel range into its neuron range.
func inputRanges(ls, prev netzoo.LayerShape, prodOut []Range) (in []Range, unitVals int) {
	switch ls.Spec.Kind {
	case netzoo.Conv:
		return prodOut, ls.InH * ls.InW
	case netzoo.FC:
		if prev.Spec.Kind == netzoo.FC {
			return prodOut, 1
		}
		// Flatten: channel range [lo,hi) covers flat neurons
		// [lo·HW, hi·HW) of this layer's input.
		hw := ls.InC / prev.OutC
		in = make([]Range, len(prodOut))
		for c, r := range prodOut {
			in[c] = Range{Lo: r.Lo * hw, Hi: r.Hi * hw}
		}
		return in, 1
	}
	return nil, 0
}

// groupMask derives the block mask of a grouped conv layer: block
// (i, j) is nonzero iff some channel group has input channels in core
// i's range and output channels in core j's range.
func groupMask(ls netzoo.LayerShape, lp LayerPartition, g, cores int) BlockMask {
	m := make(BlockMask, cores)
	inPerG := ls.InC / g
	outPerG := ls.OutC / g
	for i := range m {
		m[i] = make([]bool, cores)
		for j := range m[i] {
			for grp := 0; grp < g; grp++ {
				inG := Range{Lo: grp * inPerG, Hi: (grp + 1) * inPerG}
				outG := Range{Lo: grp * outPerG, Hi: (grp + 1) * outPerG}
				if lp.InRanges[i].Overlaps(inG) && lp.OutRanges[j].Overlaps(outG) {
					m[i][j] = true
					break
				}
			}
		}
	}
	return m
}

// SetMask installs a learned block mask on synaptic layer k (0-based).
// Masks on the first layer are legal but have no traffic effect.
func (p *Plan) SetMask(k int, m BlockMask) {
	if len(m) != p.Cores {
		panic(fmt.Sprintf("partition: mask is %d×?, plan has %d cores", len(m), p.Cores))
	}
	p.Layers[k].Mask = m
}

// TrafficMatrix holds bytes sent from core i to core j at one layer
// transition.
type TrafficMatrix [][]int64

// NewTrafficMatrix returns an n×n zero matrix.
func NewTrafficMatrix(n int) TrafficMatrix {
	t := make(TrafficMatrix, n)
	for i := range t {
		t[i] = make([]int64, n)
	}
	return t
}

// Total returns the total bytes in the matrix.
func (t TrafficMatrix) Total() int64 {
	var s int64
	for i := range t {
		for _, v := range t[i] {
			s += v
		}
	}
	return s
}

// Messages converts the matrix into NoC burst messages, with core c
// mapped to mesh node c.
func (t TrafficMatrix) Messages() []noc.Message {
	var msgs []noc.Message
	for i := range t {
		for j, b := range t[i] {
			if i != j && b > 0 {
				msgs = append(msgs, noc.Message{Src: i, Dst: j, Bytes: int(b)})
			}
		}
	}
	return msgs
}

// WeightedHops returns Σ bytes·hopdist under the given per-pair hop
// distances — the paper's "data volume × core distance" communication
// cost metric.
func (t TrafficMatrix) WeightedHops(dist [][]int) int64 {
	var s int64
	for i := range t {
		for j, b := range t[i] {
			s += b * int64(dist[i][j])
		}
	}
	return s
}

// LayerTraffic returns the traffic matrix of the transition *into*
// synaptic layer k: what each core must receive before computing its
// partition of layer k. Layer 0 never has traffic (broadcast input).
func (p *Plan) LayerTraffic(k int) TrafficMatrix {
	t := NewTrafficMatrix(p.Cores)
	p.Layers[k].addTraffic(t, 0, 0, p.BytesPerValue)
	return t
}

// TotalTraffic sums traffic bytes over all layer transitions.
func (p *Plan) TotalTraffic() int64 {
	var s int64
	for k := range p.Layers {
		s += p.LayerTraffic(k).Total()
	}
	return s
}
