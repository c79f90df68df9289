package partition

import (
	"testing"
	"testing/quick"

	"learn2scale/internal/netzoo"
	"learn2scale/internal/topology"
)

func TestSplitBalanced(t *testing.T) {
	rs := Split(304, 16)
	total := 0
	for _, r := range rs {
		n := r.Len()
		if n != 19 {
			t.Errorf("304/16 should be exactly 19 each, got %d", n)
		}
		total += n
	}
	if total != 304 {
		t.Errorf("split covers %d, want 304", total)
	}
}

func TestSplitUnevenAndTiny(t *testing.T) {
	rs := Split(10, 16)
	total := 0
	empty := 0
	for _, r := range rs {
		if r.Len() < 0 || r.Len() > 1 {
			t.Errorf("10/16 range %+v", r)
		}
		if r.Len() == 0 {
			empty++
		}
		total += r.Len()
	}
	if total != 10 || empty != 6 {
		t.Errorf("total=%d empty=%d", total, empty)
	}
	// Contiguity.
	rs = Split(17, 4)
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo != rs[i-1].Hi {
			t.Errorf("ranges not contiguous: %+v", rs)
		}
	}
}

// offDiagonal returns the number of nonzero blocks with i != j: the
// blocks that cost traffic.
func offDiagonal(m BlockMask) int {
	c := 0
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] {
				c++
			}
		}
	}
	return c
}

func TestMaskHelpers(t *testing.T) {
	d := DiagonalMask(4)
	if len(d) != 4 || offDiagonal(d) != 0 {
		t.Fatalf("diag mask: %v", d)
	}
	for i := range d {
		if len(d[i]) != 4 || !d[i][i] {
			t.Errorf("diag mask row %d: %v", i, d[i])
		}
	}
}

func TestMLPTrafficDense(t *testing.T) {
	p := NewPlan(netzoo.MLP(), 16)
	// Layer 0 (784→512): broadcast input, no traffic.
	if got := p.LayerTraffic(0).Total(); got != 0 {
		t.Errorf("first layer traffic = %d", got)
	}
	// Layer 1 (512→304): each core holds 32 of the 512 activations,
	// sends them to the other 15 cores: 512·2B·15 = 15360 total.
	if got := p.LayerTraffic(1).Total(); got != 512*2*15 {
		t.Errorf("ip2 traffic = %d, want %d", got, 512*2*15)
	}
	// Layer 2 (304→10): only 10 cores own an output; senders skip
	// cores with no outputs.
	tm := p.LayerTraffic(2)
	var want int64
	out := Split(10, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j && out[j].Len() > 0 {
				want += int64(Split(304, 16)[i].Len()) * 2
			}
		}
	}
	if tm.Total() != want {
		t.Errorf("ip3 traffic = %d, want %d", tm.Total(), want)
	}
}

func TestLeNetConvTraffic(t *testing.T) {
	p := NewPlan(netzoo.LeNet(), 16)
	// conv2's input is pool1 output: 20 channels × 12×12 × 2B. Dense:
	// every core sends its channel slice to the other 15.
	got := p.LayerTraffic(1).Total()
	want := int64(20*12*12*2) * 15
	if got != want {
		t.Errorf("conv2 traffic = %d, want %d", got, want)
	}
	// ip1's input is pool2 output (50×4×4): flattened neurons.
	got = p.LayerTraffic(2).Total()
	want = int64(50*4*4*2) * 15
	if got != want {
		t.Errorf("ip1 traffic = %d, want %d", got, want)
	}
}

func TestDiagonalMaskKillsTraffic(t *testing.T) {
	p := NewPlan(netzoo.LeNet(), 16)
	p.SetMask(1, DiagonalMask(16))
	if got := p.LayerTraffic(1).Total(); got != 0 {
		t.Errorf("diagonal-masked layer still moves %d bytes", got)
	}
	// Other layers unaffected.
	if p.LayerTraffic(2).Total() == 0 {
		t.Error("unmasked layer should still have traffic")
	}
}

func TestGroupedConvGetsDiagonalMask(t *testing.T) {
	// Structure-level parallelization with groups == cores: conv2 and
	// conv3 traffic must vanish.
	spec := netzoo.ConvNetI10([3]int{64, 128, 256}, 16, 64)
	p := NewPlan(spec, 16)
	if got := p.LayerTraffic(1).Total(); got != 0 {
		t.Errorf("grouped conv2 traffic = %d, want 0", got)
	}
	if got := p.LayerTraffic(2).Total(); got != 0 {
		t.Errorf("grouped conv3 traffic = %d, want 0", got)
	}
	// FC layers after the grouped stack still sync.
	if p.LayerTraffic(3).Total() == 0 {
		t.Error("ip1 should still need synchronization")
	}
}

func TestGroupedConvFewerGroupsThanCores(t *testing.T) {
	// 4 groups on 16 cores: each group spans 4 cores, so blocks inside
	// a group's core span stay active.
	spec := netzoo.ConvNetI10([3]int{64, 128, 256}, 4, 64)
	p := NewPlan(spec, 16)
	m := p.Layers[1].Mask
	if m == nil {
		t.Fatal("grouped layer must have a mask")
	}
	if got := offDiagonal(m); got != 16*3 { // 4 groups × 4 cores × 3 peers
		t.Errorf("off-diagonal active blocks = %d, want 48", got)
	}
	// Each core now talks to the 3 peers of its group instead of all
	// 15 cores: traffic drops 5× (15/3), not 4×.
	got := p.LayerTraffic(1).Total()
	full := NewPlan(netzoo.ConvNetI10([3]int{64, 128, 256}, 1, 64), 16).LayerTraffic(1).Total()
	if got*5 != full {
		t.Errorf("4-group traffic %d should be 1/5 of dense %d", got, full)
	}
}

func TestEffectiveFanInDenseVsMasked(t *testing.T) {
	p := NewPlan(netzoo.MLP(), 16)
	// Dense layer 1: fan-in 512 for every core.
	if got := p.Layers[1].EffectiveFanIn(3); got != 512 {
		t.Errorf("dense fan-in = %d", got)
	}
	p.SetMask(1, DiagonalMask(16))
	if got := p.Layers[1].EffectiveFanIn(3); got != 32 {
		t.Errorf("diagonal fan-in = %d, want 32", got)
	}
}

func TestCoreWorkSumsToFullLayer(t *testing.T) {
	// Dense partition: per-core MACs must sum to the layer's MACs.
	for _, spec := range []netzoo.NetSpec{netzoo.MLP(), netzoo.LeNet(), netzoo.ConvNet()} {
		p := NewPlan(spec, 16)
		syn := spec.SynapticShapes()
		for k, ls := range syn {
			var sum int64
			for c := 0; c < 16; c++ {
				sum += p.Layers[k].CoreWork(c, p.BytesPerValue).MACs
			}
			if sum != ls.MACs() {
				t.Errorf("%s layer %d: core MACs %d != layer MACs %d", spec.Name, k, sum, ls.MACs())
			}
		}
	}
}

func TestMaskedWorkIsSmaller(t *testing.T) {
	p := NewPlan(netzoo.LeNet(), 16)
	dense := p.Layers[1].CoreWork(0, p.BytesPerValue).MACs
	p.SetMask(1, DiagonalMask(16))
	masked := p.Layers[1].CoreWork(0, p.BytesPerValue).MACs
	if masked >= dense {
		t.Errorf("masked MACs %d !< dense %d", masked, dense)
	}
}

func TestTrafficMessages(t *testing.T) {
	p := NewPlan(netzoo.MLP(), 4)
	tm := p.LayerTraffic(1)
	msgs := tm.Messages()
	if len(msgs) != 12 { // 4 cores × 3 peers
		t.Errorf("message count = %d, want 12", len(msgs))
	}
	var total int64
	for _, m := range msgs {
		if m.Src == m.Dst {
			t.Error("self message emitted")
		}
		total += int64(m.Bytes)
	}
	if total != tm.Total() {
		t.Errorf("messages carry %d, matrix says %d", total, tm.Total())
	}
}

func TestWeightedHops(t *testing.T) {
	mesh := topology.NewMesh(2, 2)
	d := mesh.DistanceMatrix()
	tm := NewTrafficMatrix(4)
	tm[0][1] = 100 // 1 hop
	tm[0][3] = 50  // 2 hops
	if got := tm.WeightedHops(d); got != 100+100 {
		t.Errorf("weighted hops = %d, want 200", got)
	}
}

func TestTotalTrafficTable1Ordering(t *testing.T) {
	// Table I's qualitative claim: total partition traffic grows with
	// model scale: MLP < LeNet < ConvNet < AlexNet < VGG19.
	nets := []netzoo.NetSpec{netzoo.MLP(), netzoo.LeNet(), netzoo.ConvNet(), netzoo.AlexNet(), netzoo.VGG19()}
	var prev int64 = -1
	for _, s := range nets {
		tt := NewPlan(s, 16).TotalTraffic()
		if tt <= prev {
			t.Errorf("%s traffic %d not greater than previous %d", s.Name, tt, prev)
		}
		prev = tt
	}
}

// Property: for any core count, dense traffic of layer k equals
// (activations − own share)·bytes summed over receiving cores.
func TestQuickDenseTrafficFormula(t *testing.T) {
	spec := netzoo.MLP()
	f := func(nRaw uint8) bool {
		n := int(nRaw%31) + 2 // 2..32 cores
		p := NewPlan(spec, n)
		tm := p.LayerTraffic(1)
		in := Split(512, n)
		out := Split(304, n)
		var want int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && out[j].Len() > 0 {
					want += int64(in[i].Len()) * 2
				}
			}
		}
		return tm.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a mask with fewer active blocks never increases traffic.
func TestQuickMaskMonotone(t *testing.T) {
	p := NewPlan(netzoo.LeNet(), 8)
	f := func(bits uint64) bool {
		m1 := DiagonalMask(8)
		m2 := DiagonalMask(8)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				on := bits&(1<<uint((i*8+j)%64)) != 0
				m1[i][j] = on || i == j
				m2[i][j] = i == j // subset of m1
			}
		}
		p.SetMask(1, m1)
		t1 := p.LayerTraffic(1).Total()
		p.SetMask(1, m2)
		t2 := p.LayerTraffic(1).Total()
		return t2 <= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLayerTrafficVGG19(b *testing.B) {
	p := NewPlan(netzoo.VGG19(), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range p.Layers {
			p.LayerTraffic(k)
		}
	}
}

func BenchmarkOptimizePlacement(b *testing.B) {
	p := NewPlan(netzoo.MLP(), 16)
	agg := p.AggregateTraffic()
	mesh := topology.NewMesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimizePlacement(agg, mesh, 1000, 1)
	}
}
