package sparsity

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/partition"
	"learn2scale/internal/tensor"
	"learn2scale/internal/topology"
)

// tinyFCGroups builds a 4-core block structure over an 8×8 FC weight
// matrix with a recognizable pattern.
func tinyFCGroups(t *testing.T) (LayerGroups, *nn.Param) {
	t.Helper()
	fc := nn.NewFullyConnected("fc", 8, 8)
	p := fc.Weight()
	out := partition.Split(8, 4)
	in := partition.Split(8, 4)
	lg := NewLayerGroups("fc", p, out, in, 8, 1, 1)
	return lg, p
}

func TestBlockNormSmall(t *testing.T) {
	lg, p := tinyFCGroups(t)
	// Set block (i=1, j=0): inputs 2,3 × outputs 0,1 → w[o][u] for
	// o∈{0,1}, u∈{2,3}. Flat index o*8+u.
	for _, idx := range []int{0*8 + 2, 0*8 + 3, 1*8 + 2, 1*8 + 3} {
		p.W.Data[idx] = 2
	}
	if got := lg.BlockNorm(1, 0); math.Abs(got-4) > 1e-6 { // sqrt(4·4)=4
		t.Errorf("BlockNorm(1,0) = %v, want 4", got)
	}
	if got := lg.BlockNorm(0, 0); got != 0 {
		t.Errorf("untouched block norm = %v", got)
	}
	if lg.BlockSize(1, 0) != 4 {
		t.Errorf("BlockSize = %d, want 4", lg.BlockSize(1, 0))
	}
}

func TestConvBlockIndexing(t *testing.T) {
	conv := nn.NewConv2D("c", 4, 6, 6, 4, 3, 1, 1, 1)
	out := partition.Split(4, 2)
	in := partition.Split(4, 2)
	lg := NewLayerGroups("c", conv.Weight(), out, in, 4, 3, 3)
	// Block (0,0): oc 0..1, ic 0..1, 9 kernel elems each → 36 weights.
	if lg.BlockSize(0, 0) != 36 {
		t.Errorf("conv block size = %d, want 36", lg.BlockSize(0, 0))
	}
	// Sum of all block sizes must equal the weight count.
	total := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			total += lg.BlockSize(i, j)
		}
	}
	if total != conv.Weight().W.Len() {
		t.Errorf("blocks cover %d of %d weights", total, conv.Weight().W.Len())
	}
}

func TestNewLayerGroupsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched block structure must panic")
		}
	}()
	fc := nn.NewFullyConnected("fc", 8, 8)
	NewLayerGroups("fc", fc.Weight(), partition.Split(8, 4), partition.Split(9, 4), 9, 1, 1)
}

func TestDistanceStrengthProperties(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s := DistanceStrength(m)
	// Diagonal free.
	for i := range s {
		if s[i][i] != 0 {
			t.Errorf("diagonal strength [%d] = %v", i, s[i][i])
		}
	}
	// Mean 1 over all entries.
	sum := 0.0
	for i := range s {
		for j := range s[i] {
			sum += s[i][j]
		}
	}
	if math.Abs(sum/256-1) > 1e-9 {
		t.Errorf("mean strength = %v, want 1", sum/256)
	}
	// Monotone with distance: strength(0,15) > strength(0,1).
	if s[0][15] <= s[0][1] {
		t.Errorf("distant strength %v <= near %v", s[0][15], s[0][1])
	}
}

func TestUniformStrength(t *testing.T) {
	s := UniformStrength(3)
	for i := range s {
		for j := range s[i] {
			if s[i][j] != 1 {
				t.Fatalf("uniform strength [%d][%d] = %v", i, j, s[i][j])
			}
		}
	}
}

func TestPenaltyAndGradDirection(t *testing.T) {
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(1))
	p.W.RandN(rng, 1)
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
	pen := gl.Penalty()
	if pen <= 0 {
		t.Fatalf("penalty = %v", pen)
	}
	// A small step along −grad must reduce the penalty.
	p.Grad().Zero()
	gl.AddGrad()
	p.W.AXPY(-0.1, p.G)
	if after := gl.Penalty(); after >= pen {
		t.Errorf("penalty after gradient step %v >= before %v", after, pen)
	}
}

func TestZeroStrengthBlocksUntouched(t *testing.T) {
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(2))
	p.W.RandN(rng, 1)
	st := UniformStrength(4)
	st[1][2] = 0 // exempt one block
	gl := NewGroupLasso([]LayerGroups{lg}, st, 0.05)
	p.Grad().Zero()
	gl.AddGrad()
	found := false
	lg.forSpans(1, 2, func(lo, hi int) {
		for _, v := range p.G.Data[lo:hi] {
			if v != 0 {
				found = true
			}
		}
	})
	if found {
		t.Error("zero-strength block received regularization gradient")
	}
}

func TestThresholdPrunesWeakBlocks(t *testing.T) {
	lg, p := tinyFCGroups(t)
	// Strong diagonal blocks, weak off-diagonal blocks.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := float32(0.001)
			if i == j {
				v = 1.0
			}
			lg.forSpans(i, j, func(lo, hi int) {
				for idx := lo; idx < hi; idx++ {
					p.W.Data[idx] = v
				}
			})
		}
	}
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
	masks := gl.Threshold(0.5)
	if len(masks) != 1 {
		t.Fatalf("masks = %d", len(masks))
	}
	m := masks[0]
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if (i == j) != m[i][j] {
				t.Errorf("mask[%d][%d] = %v", i, j, m[i][j])
			}
		}
	}
	// Pruned weights must actually be zero.
	if lg.BlockNorm(0, 1) != 0 {
		t.Error("pruned block norm nonzero")
	}
	if lg.BlockNorm(0, 0) == 0 {
		t.Error("surviving block was cleared")
	}
}

func TestOccupancyString(t *testing.T) {
	m := partition.DiagonalMask(3)
	s := OccupancyString(m)
	want := "1 0 0\n0 1 0\n0 0 1\n"
	if s != want {
		t.Errorf("OccupancyString = %q, want %q", s, want)
	}
	if !strings.Contains(s, "1") {
		t.Error("missing occupancy bits")
	}
}

func TestForPlanMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := netzoo.MLP()
	net := spec.Build(rng)
	plan := partition.NewPlan(spec, 16)
	gl, err := ForPlan(net, plan, UniformStrength(16), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// ip2 and ip3 are regularized; ip1 (broadcast input) is not.
	if len(gl.Layers) != 2 {
		t.Fatalf("regularized layers = %d, want 2", len(gl.Layers))
	}
	if gl.Layers[0].Name != "ip2" || gl.Layers[1].Name != "ip3" {
		t.Errorf("layers: %s, %s", gl.Layers[0].Name, gl.Layers[1].Name)
	}
}

func TestForPlanRejectsGroupedConv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spec := netzoo.ConvNetI10Reduced([3]int{16, 32, 64}, 4)
	net := spec.Build(rng)
	plan := partition.NewPlan(spec, 4)
	if _, err := ForPlan(net, plan, UniformStrength(4), 0.01); err == nil {
		t.Error("grouped conv must be rejected")
	}
}

func TestMasksByLayerIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec := netzoo.MLP()
	net := spec.Build(rng)
	plan := partition.NewPlan(spec, 4)
	gl, err := ForPlan(net, plan, UniformStrength(4), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	masks := gl.Threshold(0)
	byLayer := MasksByLayer(gl, plan, masks)
	if len(byLayer) != 3 {
		t.Fatalf("byLayer = %d entries", len(byLayer))
	}
	if byLayer[0] != nil {
		t.Error("layer 0 must be unmasked")
	}
	if byLayer[1] == nil || byLayer[2] == nil {
		t.Error("layers 1,2 must carry masks")
	}
}

// End-to-end: group-Lasso training with a distance mask must shrink
// distant blocks more than near ones while the model stays accurate.
func TestTrainingShrinksDistantBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim, classes = 16, 4
	// Separable toy data.
	var xs []*tensor.Tensor
	var ys []int
	for i := 0; i < 160; i++ {
		lbl := i % classes
		x := tensor.New(1, 4, 4)
		x.RandN(rng, 0.3)
		x.Data[lbl] += 2.5
		xs = append(xs, x)
		ys = append(ys, lbl)
	}
	spec := netzoo.NetSpec{
		Name: "toy", InC: 1, InH: 4, InW: 4,
		Layers: []netzoo.LayerSpec{
			{Name: "fc1", Kind: netzoo.FC, Out: 16},
			{Name: "fc2", Kind: netzoo.FC, Out: 16},
			{Name: "fc3", Kind: netzoo.FC, Out: classes},
		},
	}
	_ = dim
	net := spec.Build(rng)
	mesh := topology.NewMesh(2, 2)
	plan := partition.NewPlan(spec, 4)
	gl, err := ForPlan(net, plan, DistanceStrength(mesh), 0.004)
	if err != nil {
		t.Fatal(err)
	}
	tr := &nn.Trainer{
		Net: net,
		Config: nn.SGDConfig{
			LearningRate: 0.1, Momentum: 0.9, BatchSize: 16, Epochs: 30, LRDecay: 1, Seed: 1,
		},
		Reg: gl,
	}
	tr.Fit(xs, ys)
	if acc := net.Accuracy(xs, ys); acc < 0.9 {
		t.Fatalf("accuracy with regularizer = %v", acc)
	}
	// fc2's blocks: 2-hop pairs (0,3) and (1,2) on a 2x2 mesh must be
	// weaker on average than diagonal blocks.
	lg := gl.Layers[0]
	far := (lg.BlockNorm(0, 3) + lg.BlockNorm(3, 0) + lg.BlockNorm(1, 2) + lg.BlockNorm(2, 1)) / 4
	diag := (lg.BlockNorm(0, 0) + lg.BlockNorm(1, 1) + lg.BlockNorm(2, 2) + lg.BlockNorm(3, 3)) / 4
	if far >= diag {
		t.Errorf("distant block norm %v >= diagonal %v after SS_Mask training", far, diag)
	}
}

// Property: Penalty is non-negative and zero exactly for zero weights.
func TestQuickPenaltyNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := nn.NewFullyConnected("fc", 8, 8)
		fc.Weight().W.RandN(rng, 1)
		lg := NewLayerGroups("fc", fc.Weight(), partition.Split(8, 4), partition.Split(8, 4), 8, 1, 1)
		gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
		if gl.Penalty() < 0 {
			return false
		}
		fc.Weight().W.Zero()
		return gl.Penalty() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a larger threshold never keeps more blocks.
func TestQuickThresholdMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := nn.NewFullyConnected("fc", 8, 8)
		fc.Weight().W.RandN(rng, 1)
		lg := NewLayerGroups("fc", fc.Weight(), partition.Split(8, 4), partition.Split(8, 4), 8, 1, 1)
		gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
		saved := fc.Weight().W.Clone()
		lo := gl.Threshold(0.2)[0]
		copy(fc.Weight().W.Data, saved.Data)
		hi := gl.Threshold(1.5)[0]
		count := func(m partition.BlockMask) int {
			c := 0
			for i := range m {
				for j := range m[i] {
					if m[i][j] {
						c++
					}
				}
			}
			return c
		}
		return count(hi) <= count(lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGroupLassoAddGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fc := nn.NewFullyConnected("fc", 512, 304)
	fc.Weight().W.RandN(rng, 0.1)
	lg := NewLayerGroups("fc", fc.Weight(), partition.Split(304, 16), partition.Split(512, 16), 512, 1, 1)
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(16), 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Weight().Grad().Zero()
		gl.AddGrad()
	}
}

func TestProjectorKeepsPrunedBlocksZero(t *testing.T) {
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(9))
	p.W.RandN(rng, 1)
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
	masks := gl.Threshold(1.2) // prune aggressively
	proj := gl.Projector(masks)
	// Perturb every weight (as a fine-tuning step would), project, and
	// verify pruned blocks return to exactly zero while kept blocks
	// keep their perturbation.
	for i := range p.W.Data {
		p.W.Data[i] += 0.5
	}
	proj()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			norm := lg.BlockNorm(i, j)
			if masks[0][i][j] && norm == 0 {
				t.Errorf("kept block (%d,%d) was zeroed", i, j)
			}
			if !masks[0][i][j] && norm != 0 {
				t.Errorf("pruned block (%d,%d) escaped projection: %v", i, j, norm)
			}
		}
	}
}

func TestProjectorMaskCountMismatchPanics(t *testing.T) {
	lg, _ := tinyFCGroups(t)
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
	defer func() {
		if recover() == nil {
			t.Error("mismatched mask count must panic")
		}
	}()
	gl.Projector(nil)
}

func TestThresholdColumnSafety(t *testing.T) {
	// All blocks weak: every destination core must still keep its
	// strongest input block (no dead outputs).
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(10))
	for i := range p.W.Data {
		p.W.Data[i] = float32(rng.NormFloat64()) * 1e-4
	}
	gl := NewGroupLasso([]LayerGroups{lg}, UniformStrength(4), 0.01)
	masks := gl.Threshold(100) // absurd threshold: everything "weak"
	for j := 0; j < 4; j++ {
		alive := false
		for i := 0; i < 4; i++ {
			if masks[0][i][j] {
				alive = true
			}
		}
		if !alive {
			t.Errorf("destination core %d lost all input blocks", j)
		}
	}
}

func TestNewGroupLassoSizeMismatchPanics(t *testing.T) {
	lg, _ := tinyFCGroups(t)
	defer func() {
		if recover() == nil {
			t.Error("strength size mismatch must panic")
		}
	}()
	NewGroupLasso([]LayerGroups{lg}, UniformStrength(8), 0.01)
}

func TestUnstructuredPruneFraction(t *testing.T) {
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(11))
	p.W.RandN(rng, 1)
	n := UnstructuredPrune(lg, 0.5)
	if n < 28 || n > 36 { // ~half of 64
		t.Errorf("pruned %d of 64 weights at frac 0.5", n)
	}
	zeros := 0
	for _, v := range p.W.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros != n {
		t.Errorf("zeros %d != reported %d", zeros, n)
	}
	if UnstructuredPrune(lg, 0) != 0 {
		t.Error("frac 0 must prune nothing")
	}
}

func TestUnitTrafficStructuredVsUnstructured(t *testing.T) {
	// The paper's §IV.C.1 point: random zeros barely reduce traffic,
	// block zeros eliminate it. 70% unstructured pruning on an 8x8
	// matrix leaves almost every (i,j) block active; zeroing whole
	// blocks deactivates them.
	lg, p := tinyFCGroups(t)
	rng := rand.New(rand.NewSource(12))
	p.W.RandN(rng, 1)
	UnstructuredPrune(lg, 0.7)
	unstructured := UnitTraffic(lg)
	activeU := 0
	for i := range unstructured {
		for j := range unstructured[i] {
			if unstructured[i][j] {
				activeU++
			}
		}
	}
	// Now zero complete blocks to the same overall sparsity.
	p.W.RandN(rng, 1)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if (i+j)%3 != 0 { // ~2/3 of blocks
				lg.forSpans(i, j, func(lo, hi int) { clear(p.W.Data[lo:hi]) })
			}
		}
	}
	structured := UnitTraffic(lg)
	activeS := 0
	for i := range structured {
		for j := range structured[i] {
			if structured[i][j] {
				activeS++
			}
		}
	}
	if activeS >= activeU {
		t.Errorf("structured zeros left %d active blocks, unstructured %d — structure must win", activeS, activeU)
	}
	// Unstructured 70% should keep the large majority of blocks alive.
	if activeU < 12 {
		t.Errorf("unstructured pruning deactivated too many blocks (%d/16): not the expected behaviour at this size", activeU)
	}
}

// forSpans must visit exactly the indices of the old per-element block
// walk, in the same order — the guarantee BlockNorm's fold order (and
// thus training determinism) rests on.
func TestForSpansMatchesElementWalk(t *testing.T) {
	lg, _ := tinyFCGroups(t)
	kk := lg.KH * lg.KW
	for i := 0; i < lg.Cores(); i++ {
		for j := 0; j < lg.Cores(); j++ {
			var got []int
			lg.forSpans(i, j, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					got = append(got, k)
				}
			})
			var want []int
			for o := lg.OutRanges[j].Lo; o < lg.OutRanges[j].Hi; o++ {
				rowBase := o * lg.InUnits * kk
				for u := lg.InRanges[i].Lo; u < lg.InRanges[i].Hi; u++ {
					for k := 0; k < kk; k++ {
						want = append(want, rowBase+u*kk+k)
					}
				}
			}
			if len(got) != lg.BlockSize(i, j) {
				t.Fatalf("block (%d,%d): %d indices, BlockSize %d", i, j, len(got), lg.BlockSize(i, j))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("block (%d,%d) index %d: got %d want %d", i, j, k, got[k], want[k])
				}
			}
		}
	}
}
