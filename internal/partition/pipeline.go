// Pipeline partitioning: regroup a kernel-wise Plan into depth
// contiguous layer *stages*, each pinned to a disjoint contiguous
// block of cores, so several inferences can advance through the chip
// concurrently (internal/cmp.RunPipeline). Depth 1 degenerates to the
// base plan exactly — same ranges, same masks, same traffic — which is
// what lets the pipelined scheduler be differentially tested against
// the layer-synchronous barrier model.
package partition

import "fmt"

// StageLayer is one synaptic layer re-partitioned over its stage's
// cores. The embedded LayerPartition's producer-side fields (InRanges,
// Mask rows) are indexed by the producing stage's local cores — the
// same stage for an intra-stage transition, the previous stage for the
// stage's first layer — and its Mask is projected from the base plan's
// (see projectMask).
type StageLayer struct {
	K int // synaptic layer index in the base plan
	LayerPartition
	// CrossStage marks the stage's first layer when its producers live
	// on the previous stage's cores.
	CrossStage bool
}

// PipelineStage is one pipeline stage: a contiguous run of synaptic
// layers pinned to a contiguous block of cores.
type PipelineStage struct {
	First, Last int // synaptic layer span [First, Last]
	// CoreBase is the stage's first global core id: the stage owns
	// global cores [CoreBase, CoreBase+Cores). Global ids enumerate
	// stage-major, so at depth 1 they coincide with the base plan's
	// logical cores.
	CoreBase, Cores int
	Layers          []StageLayer
}

// PipelinePlan regroups a Plan into depth stages.
type PipelinePlan struct {
	Base   *Plan
	Depth  int
	Stages []PipelineStage
}

// NewPipelinePlan cuts p into depth stages, balancing the per-stage
// MAC totals, and splits the cores across stages proportionally to
// stage cost (each stage gets at least one core).
func NewPipelinePlan(p *Plan, depth int) (*PipelinePlan, error) {
	cuts, err := balanceCuts(p, depth)
	if err != nil {
		return nil, err
	}
	return NewPipelinePlanCustom(p, cuts, balanceCores(p, cuts))
}

// NewPipelinePlanCustom builds a pipeline plan from explicit stage
// boundaries and core counts: stage s spans synaptic layers
// [cuts[s], cuts[s+1]) where the implicit cuts[len] is the layer
// count, and owns coresPerStage[s] cores. cuts[0] must be 0, cuts
// strictly increasing; every stage needs at least one core and the
// counts must sum to the plan's cores.
func NewPipelinePlanCustom(p *Plan, cuts, coresPerStage []int) (*PipelinePlan, error) {
	depth := len(cuts)
	L := len(p.Layers)
	if depth == 0 || depth > L {
		return nil, fmt.Errorf("partition: %d stage cuts over %d layers", depth, L)
	}
	if len(coresPerStage) != depth {
		return nil, fmt.Errorf("partition: %d stages but %d core counts", depth, len(coresPerStage))
	}
	if cuts[0] != 0 {
		return nil, fmt.Errorf("partition: first stage starts at layer %d, want 0", cuts[0])
	}
	sum := 0
	for s, m := range coresPerStage {
		if m < 1 {
			return nil, fmt.Errorf("partition: stage %d has %d cores", s, m)
		}
		sum += m
	}
	if sum != p.Cores {
		return nil, fmt.Errorf("partition: stage cores sum to %d, plan has %d", sum, p.Cores)
	}

	pp := &PipelinePlan{Base: p, Depth: depth}
	base := 0
	for s := 0; s < depth; s++ {
		first := cuts[s]
		last := L - 1
		if s+1 < depth {
			last = cuts[s+1] - 1
		}
		if last < first {
			return nil, fmt.Errorf("partition: stage %d spans layers [%d, %d]", s, first, last)
		}
		st := PipelineStage{First: first, Last: last, CoreBase: base, Cores: coresPerStage[s]}
		base += st.Cores
		pp.Stages = append(pp.Stages, st)
	}

	// Re-partition each stage's layers over its own cores. Producer
	// ranges follow the base plan's rules (conv: channel ownership;
	// FC after conv: flattened channel ranges), with the producing
	// side's core count taken from whichever stage owns the producer.
	for s := range pp.Stages {
		st := &pp.Stages[s]
		for k := st.First; k <= st.Last; k++ {
			lp := &p.Layers[k]
			sl := StageLayer{K: k, LayerPartition: LayerPartition{
				Shape: lp.Shape, OutRanges: Split(lp.Shape.OutC, st.Cores)}}
			if k > 0 {
				var prodOut []Range // producer's OutRanges for base layer k-1
				if k == st.First {
					sl.CrossStage = true
					prev := &pp.Stages[s-1]
					prodOut = prev.Layers[len(prev.Layers)-1].OutRanges
				} else {
					prodOut = st.Layers[len(st.Layers)-1].OutRanges
				}
				sl.InRanges, sl.InUnitValues = inputRanges(lp.Shape, p.Layers[k-1].Shape, prodOut)
				sl.Mask = projectMask(lp, &sl.LayerPartition)
			}
			st.Layers = append(st.Layers, sl)
		}
	}
	return pp, nil
}

// projectMask maps the base layer's n×n block mask onto the stage
// layer's (producer cores × consumer cores) geometry: sub-block (a, b)
// is active iff some base block (i, j) is active with base core i's
// input range overlapping producer core a's and base core j's output
// range overlapping consumer core b's. Both input-range sets live in the
// layer's input-unit space (flattened neurons for FC-after-conv). With
// identical partitions (depth 1) the projection is the identity on
// every traffic-carrying block; with coarser stage partitions it is
// conservative (a superset), never dropping a dependency the base mask
// kept.
func projectMask(base, sub *LayerPartition) BlockMask {
	if base.Mask == nil || base.InRanges == nil || sub.InRanges == nil {
		return nil // dense stays dense; first-layer masks carry no traffic
	}
	m := make(BlockMask, len(sub.InRanges))
	for a, subIn := range sub.InRanges {
		m[a] = make([]bool, len(sub.OutRanges))
		for b, subOut := range sub.OutRanges {
			for i, row := range base.Mask {
				if !base.InRanges[i].Overlaps(subIn) {
					continue
				}
				for j, on := range row {
					if on && base.OutRanges[j].Overlaps(subOut) {
						m[a][b] = true
						break
					}
				}
				if m[a][b] {
					break
				}
			}
		}
	}
	return m
}

// LayerTraffic returns the global-core traffic matrix of the
// transition into stage s's layer li: producer cores (previous layer's
// owners — same stage, or the previous stage for li == 0) send the
// input slices the projected mask requires. At depth 1 the matrix
// equals the base plan's LayerTraffic for the same layer.
func (pp *PipelinePlan) LayerTraffic(s, li int) TrafficMatrix {
	t := NewTrafficMatrix(pp.Base.Cores)
	st := &pp.Stages[s]
	sl := &st.Layers[li]
	prodBase := st.CoreBase
	if sl.CrossStage {
		prodBase = pp.Stages[s-1].CoreBase
	}
	sl.addTraffic(t, prodBase, st.CoreBase, pp.Base.BytesPerValue)
	return t
}

// StageOf returns the stage index owning synaptic layer k.
func (pp *PipelinePlan) StageOf(k int) int {
	for s := range pp.Stages {
		if k >= pp.Stages[s].First && k <= pp.Stages[s].Last {
			return s
		}
	}
	return -1
}

// layerCost is the stage-balancing weight of layer k: its MAC count,
// floored at 1 so zero-MAC layers still occupy a slot.
func layerCost(p *Plan, k int) int64 {
	if c := p.Layers[k].Shape.MACs(); c > 0 {
		return c
	}
	return 1
}

// balanceCuts partitions the plan's layers into depth contiguous
// groups minimizing the maximum group MAC total (exact DP — layer
// counts are tiny). Returns the stage start indices.
func balanceCuts(p *Plan, depth int) ([]int, error) {
	L := len(p.Layers)
	if depth < 1 || depth > L || depth > p.Cores {
		return nil, fmt.Errorf("partition: pipeline depth %d over %d layers, %d cores", depth, L, p.Cores)
	}
	pre := make([]int64, L+1)
	for k := 0; k < L; k++ {
		pre[k+1] = pre[k] + layerCost(p, k)
	}
	const inf = int64(1) << 62
	// best[d][e]: minimal max-group cost covering layers [0, e) with d groups.
	best := make([][]int64, depth+1)
	cut := make([][]int, depth+1)
	for d := range best {
		best[d] = make([]int64, L+1)
		cut[d] = make([]int, L+1)
		for e := range best[d] {
			best[d][e] = inf
		}
	}
	best[0][0] = 0
	for d := 1; d <= depth; d++ {
		for e := d; e <= L; e++ {
			for b := d - 1; b < e; b++ {
				if best[d-1][b] == inf {
					continue
				}
				c := pre[e] - pre[b]
				if c < best[d-1][b] {
					c = best[d-1][b]
				}
				if c < best[d][e] {
					best[d][e] = c
					cut[d][e] = b
				}
			}
		}
	}
	cuts := make([]int, depth)
	e := L
	for d := depth; d >= 1; d-- {
		b := cut[d][e]
		cuts[d-1] = b
		e = b
	}
	return cuts, nil
}

// balanceCores splits the plan's cores across the stages proportionally
// to their MAC totals (largest remainder, one-core floor).
func balanceCores(p *Plan, cuts []int) []int {
	depth := len(cuts)
	L := len(p.Layers)
	costs := make([]int64, depth)
	var total int64
	for s := 0; s < depth; s++ {
		hi := L
		if s+1 < depth {
			hi = cuts[s+1]
		}
		for k := cuts[s]; k < hi; k++ {
			costs[s] += layerCost(p, k)
		}
		total += costs[s]
	}
	cores := make([]int, depth)
	assigned := 0
	rem := make([]float64, depth)
	for s := range cores {
		exact := float64(p.Cores) * float64(costs[s]) / float64(total)
		cores[s] = int(exact)
		if cores[s] < 1 {
			cores[s] = 1
		}
		rem[s] = exact - float64(cores[s])
		assigned += cores[s]
	}
	// Distribute the remainder (or claw back an excess) by largest
	// (smallest) fractional part; ties break on the lower stage index.
	for assigned < p.Cores {
		bi := -1
		for s := range cores {
			if bi == -1 || rem[s] > rem[bi] {
				bi = s
			}
		}
		cores[bi]++
		rem[bi]--
		assigned++
	}
	for assigned > p.Cores {
		bi := -1
		for s := range cores {
			if cores[s] <= 1 {
				continue
			}
			if bi == -1 || rem[s] < rem[bi] {
				bi = s
			}
		}
		cores[bi]--
		rem[bi]++
		assigned--
	}
	return cores
}
