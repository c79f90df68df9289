package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"learn2scale/internal/netzoo"
)

func pipelineModels(t *testing.T) map[string]netzoo.NetSpec {
	t.Helper()
	return map[string]netzoo.NetSpec{
		"alexnet": netzoo.AlexNet(),
		"vgg19":   netzoo.VGG19(),
		"lenet":   netzoo.LeNet(),
	}
}

// Depth 1 must degenerate to the base plan exactly: same ranges, same
// per-core work, and byte-identical traffic matrices for every layer —
// the identity the differential pipeline tests in internal/cmp rest on.
// Work and traffic come from the same LayerPartition methods on both
// sides, so this holds the depth-1 stage re-partition and projectMask
// to the base plan, under dense layers, structure-level group masks and
// seeded random learned masks on every layer after the first.
func TestPipelineDepthOneIsBasePlan(t *testing.T) {
	models := pipelineModels(t)
	models["convnet-i10-g4"] = netzoo.ConvNetI10([3]int{64, 128, 256}, 4, 64)
	for name, spec := range models {
		for _, masked := range []bool{false, true} {
			p := NewPlan(spec, 16)
			if masked {
				rng := rand.New(rand.NewSource(1))
				for k := 1; k < len(p.Layers); k++ {
					m := make(BlockMask, p.Cores)
					for i := range m {
						m[i] = make([]bool, p.Cores)
						for j := range m[i] {
							m[i][j] = rng.Intn(2) == 0
						}
					}
					p.SetMask(k, m)
				}
			}
			checkDepthOneIsBase(t, fmt.Sprintf("%s masked=%v", name, masked), p)
		}
	}
}

func checkDepthOneIsBase(t *testing.T, name string, p *Plan) {
	t.Helper()
	pp, err := NewPipelinePlan(p, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(pp.Stages) != 1 {
		t.Fatalf("%s: depth-1 plan has %d stages", name, len(pp.Stages))
	}
	st := pp.Stages[0]
	if st.CoreBase != 0 || st.Cores != p.Cores || st.First != 0 || st.Last != len(p.Layers)-1 {
		t.Fatalf("%s: depth-1 stage %+v", name, st)
	}
	for li, sl := range st.Layers {
		lp := &p.Layers[sl.K]
		if sl.K != li {
			t.Fatalf("%s: stage layer %d maps to base layer %d", name, li, sl.K)
		}
		if !reflect.DeepEqual(sl.OutRanges, lp.OutRanges) {
			t.Errorf("%s layer %d: OutRanges differ", name, li)
		}
		if !reflect.DeepEqual(sl.InRanges, lp.InRanges) {
			t.Errorf("%s layer %d: InRanges differ", name, li)
		}
		if sl.InUnitValues != lp.InUnitValues {
			t.Errorf("%s layer %d: InUnitValues %d vs %d", name, li, sl.InUnitValues, lp.InUnitValues)
		}
		if !reflect.DeepEqual(pp.LayerTraffic(0, li), p.LayerTraffic(li)) {
			t.Errorf("%s layer %d: traffic matrices differ", name, li)
		}
		for c := 0; c < p.Cores; c++ {
			if got, want := sl.CoreWork(c, p.BytesPerValue), lp.CoreWork(c, p.BytesPerValue); got != want {
				t.Errorf("%s layer %d core %d: work %+v vs %+v", name, li, c, got, want)
			}
		}
	}
}

// Structural invariants at every depth: stages tile the layer list,
// core blocks are disjoint and exhaustive, cross-stage flags sit only
// on stage-first layers, and per-layer output ranges cover the layer.
func TestPipelineStructure(t *testing.T) {
	for name, spec := range pipelineModels(t) {
		p := NewPlan(spec, 16)
		for depth := 1; depth <= 4; depth++ {
			pp, err := NewPipelinePlan(p, depth)
			if err != nil {
				t.Fatalf("%s depth %d: %v", name, depth, err)
			}
			if len(pp.Stages) != depth {
				t.Fatalf("%s: want %d stages, got %d", name, depth, len(pp.Stages))
			}
			nextLayer, nextCore := 0, 0
			for s, st := range pp.Stages {
				if st.First != nextLayer || st.CoreBase != nextCore {
					t.Errorf("%s depth %d stage %d: starts (layer %d, core %d), want (%d, %d)",
						name, depth, s, st.First, st.CoreBase, nextLayer, nextCore)
				}
				if st.Cores < 1 {
					t.Errorf("%s depth %d stage %d: %d cores", name, depth, s, st.Cores)
				}
				nextLayer = st.Last + 1
				nextCore += st.Cores
				for li, sl := range st.Layers {
					if sl.K != st.First+li {
						t.Errorf("%s depth %d stage %d: layer %d is base %d", name, depth, s, li, sl.K)
					}
					if sl.CrossStage != (li == 0 && sl.K > 0) {
						t.Errorf("%s depth %d stage %d layer %d: CrossStage=%v", name, depth, s, li, sl.CrossStage)
					}
					covered := 0
					for _, r := range sl.OutRanges {
						covered += r.Len()
					}
					if covered != sl.Shape.OutC {
						t.Errorf("%s depth %d stage %d layer %d: ranges cover %d of %d outputs",
							name, depth, s, li, covered, sl.Shape.OutC)
					}
					if pp.StageOf(sl.K) != s {
						t.Errorf("%s depth %d: StageOf(%d) = %d, want %d", name, depth, sl.K, pp.StageOf(sl.K), s)
					}
				}
			}
			if nextLayer != len(p.Layers) || nextCore != p.Cores {
				t.Errorf("%s depth %d: stages end at (layer %d, core %d), want (%d, %d)",
					name, depth, nextLayer, nextCore, len(p.Layers), p.Cores)
			}
		}
	}
}

// Traffic destinations must stay inside the consumer stage's core block
// and sources inside the producer's; the projected mask must never
// drop a dependency the base plan kept (conservative projection).
func TestPipelineTrafficLocality(t *testing.T) {
	p := NewPlan(netzoo.AlexNet(), 16)
	for depth := 2; depth <= 4; depth++ {
		pp, err := NewPipelinePlan(p, depth)
		if err != nil {
			t.Fatal(err)
		}
		for s, st := range pp.Stages {
			for li, sl := range st.Layers {
				prodBase, prodCores := st.CoreBase, st.Cores
				if sl.CrossStage {
					prev := pp.Stages[s-1]
					prodBase, prodCores = prev.CoreBase, prev.Cores
				}
				tm := pp.LayerTraffic(s, li)
				for i := range tm {
					for j, b := range tm[i] {
						if b == 0 {
							continue
						}
						if i < prodBase || i >= prodBase+prodCores {
							t.Errorf("depth %d stage %d layer %d: source %d outside producer block [%d,%d)",
								depth, s, li, i, prodBase, prodBase+prodCores)
						}
						if j < st.CoreBase || j >= st.CoreBase+st.Cores {
							t.Errorf("depth %d stage %d layer %d: dest %d outside stage block [%d,%d)",
								depth, s, li, j, st.CoreBase, st.CoreBase+st.Cores)
						}
					}
				}
				// Conservativeness: every unit the base plan delivers to
				// some output owner must reach the stage core owning the
				// same outputs.
				if sl.Mask != nil {
					base := p.Layers[sl.K]
					for i := range base.Mask {
						for j := range base.Mask[i] {
							if !base.Mask[i][j] || base.InRanges[i].Len() == 0 || base.OutRanges[j].Len() == 0 {
								continue
							}
							for a := range sl.InRanges {
								if !sl.InRanges[a].Overlaps(base.InRanges[i]) {
									continue
								}
								for b := range sl.OutRanges {
									if sl.OutRanges[b].Overlaps(base.OutRanges[j]) && !sl.Mask[a][b] {
										t.Errorf("depth %d stage %d layer %d: projection dropped base block (%d,%d) at (%d,%d)",
											depth, s, li, i, j, a, b)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// Stage cuts must balance MACs: the DP's max-stage cost can never
// exceed the cost of any other contiguous split into the same number
// of stages (spot-checked against even layer-count splits).
func TestPipelineCutBalance(t *testing.T) {
	p := NewPlan(netzoo.VGG19(), 16)
	L := len(p.Layers)
	stageCost := func(cuts []int) int64 {
		var worst int64
		for s := range cuts {
			hi := L
			if s+1 < len(cuts) {
				hi = cuts[s+1]
			}
			var c int64
			for k := cuts[s]; k < hi; k++ {
				c += layerCost(p, k)
			}
			if c > worst {
				worst = c
			}
		}
		return worst
	}
	for depth := 2; depth <= 5; depth++ {
		cuts, err := balanceCuts(p, depth)
		if err != nil {
			t.Fatal(err)
		}
		got := stageCost(cuts)
		naive := make([]int, depth)
		for s := range naive {
			naive[s] = s * L / depth
		}
		if alt := stageCost(naive); got > alt {
			t.Errorf("depth %d: DP max-stage cost %d worse than naive split's %d", depth, got, alt)
		}
	}
}

func TestPipelinePlanErrors(t *testing.T) {
	p := NewPlan(netzoo.LeNet(), 4)
	if _, err := NewPipelinePlan(p, 0); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewPipelinePlan(p, len(p.Layers)+1); err == nil {
		t.Error("depth > layers accepted")
	}
	if _, err := NewPipelinePlan(p, 5); err == nil {
		t.Error("depth > cores accepted")
	}
	if _, err := NewPipelinePlanCustom(p, []int{1, 2}, []int{2, 2}); err == nil {
		t.Error("first cut != 0 accepted")
	}
	if _, err := NewPipelinePlanCustom(p, []int{0, 2, 2}, []int{2, 1, 1}); err == nil {
		t.Error("non-increasing cuts accepted")
	}
	if _, err := NewPipelinePlanCustom(p, []int{0, 2}, []int{3, 0}); err == nil {
		t.Error("zero-core stage accepted")
	}
	if _, err := NewPipelinePlanCustom(p, []int{0, 2}, []int{3, 3}); err == nil {
		t.Error("core over-subscription accepted")
	}
	if _, err := NewPipelinePlanCustom(p, []int{0, 2}, []int{2, 2}); err != nil {
		t.Errorf("valid custom plan rejected: %v", err)
	}
}
