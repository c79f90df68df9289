package core

import (
	"strings"
	"testing"

	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/topology"
)

func TestStrengthForShapes(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	for _, shape := range []MaskShape{MaskLinear, MaskQuadratic, MaskBinaryFar, MaskOffDiag} {
		s := StrengthFor(shape, mesh)
		// Normalized to mean 1 over all entries.
		sum := 0.0
		for i := range s {
			for j := range s[i] {
				if s[i][j] < 0 {
					t.Fatalf("%v: negative strength", shape)
				}
				sum += s[i][j]
			}
		}
		if got := sum / 256; got < 0.999 || got > 1.001 {
			t.Errorf("%v: mean strength %v, want 1", shape, got)
		}
		// Diagonal-free for all shapes.
		for i := range s {
			if s[i][i] != 0 {
				t.Errorf("%v: diagonal strength %v", shape, s[i][i])
			}
		}
	}
	// Quadratic must emphasize distance more than linear.
	lin := StrengthFor(MaskLinear, mesh)
	quad := StrengthFor(MaskQuadratic, mesh)
	if quad[0][15] <= lin[0][15] {
		t.Errorf("quadratic far strength %v <= linear %v", quad[0][15], lin[0][15])
	}
}

func TestMaskShapeStrings(t *testing.T) {
	for shape, want := range map[MaskShape]string{
		MaskLinear: "linear", MaskQuadratic: "quadratic",
		MaskBinaryFar: "binary-far", MaskOffDiag: "off-diagonal",
	} {
		if shape.String() != want {
			t.Errorf("%d -> %q, want %q", shape, shape.String(), want)
		}
	}
	if MaskShape(42).String() == "" {
		t.Error("unknown shape should format")
	}
}

func TestNoCSweepSanity(t *testing.T) {
	rows, err := NoCSweep(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no sweep rows")
	}
	get := func(param string, value int) int64 {
		for _, r := range rows {
			if r.Param == param && r.Value == value {
				return r.Cycles
			}
		}
		t.Fatalf("missing row %s=%d", param, value)
		return 0
	}
	// More VCs and more planes must not slow the drain.
	if get("VCs", 1) < get("VCs", 3) {
		t.Error("3 VCs slower than 1 VC")
	}
	if get("Planes", 1) <= get("Planes", 2) {
		t.Error("2 planes not faster than 1")
	}
	if !strings.Contains(NoCSweepTable(rows).Format(), "Drain cycles") {
		t.Error("table missing header")
	}
}

func TestOverlapAblationMonotone(t *testing.T) {
	rows, err := OverlapAblation(netzoo.LeNet(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles > rows[i-1].Cycles {
			t.Errorf("more overlap increased cycles: %d -> %d", rows[i-1].Cycles, rows[i].Cycles)
		}
	}
	if rows[4].CommShare != 0 {
		t.Errorf("full overlap should zero the comm share, got %v", rows[4].CommShare)
	}
	if rows[0].CommShare <= 0 {
		t.Error("no overlap must show a comm share")
	}
	if !strings.Contains(OverlapTable("LeNet", rows).Format(), "Overlap factor") {
		t.Error("table missing header")
	}
}

func TestMulticastAblation(t *testing.T) {
	rows := MulticastAblation(16)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MulticastHops >= r.UnicastHops {
			t.Errorf("%s: multicast %d !< unicast %d", r.Network, r.MulticastHops, r.UnicastHops)
		}
		if r.SavingPct < 20 || r.SavingPct > 90 {
			t.Errorf("%s: saving %.0f%% out of expected range", r.Network, r.SavingPct)
		}
	}
	if !strings.Contains(MulticastTable(rows).Format(), "Multicast") {
		t.Error("table missing header")
	}
}

func TestQuantAblationTinyNet(t *testing.T) {
	// A single fast net keeps this a unit test; the full sweep runs in
	// l2s-bench -exp quant.
	cfg := SparseNetConfig{
		Name: "tiny", Spec: tinySpec(),
		Data: func(int64) *data.Dataset { return tinyData() },
		Recipe: Recipe{
			SGD:    tinyTrainOptions(4).SGD,
			Seed:   3,
			Lambda: 0.01, ThresholdRel: 0.3,
		},
	}
	rows, err := QuantAblation([]SparseNetConfig{cfg}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.FloatAcc <= 0.5 || r.FixedAcc <= 0.5 {
		t.Errorf("accuracies too low: %+v", r)
	}
	// The int16 path must track float closely on these small nets.
	if r.AgreePct < 85 {
		t.Errorf("prediction agreement %.1f%%, want >= 85%%", r.AgreePct)
	}
	// FixedAcc is the accuracy of the scaled-int16 QuantNetwork,
	// max-abs calibrated on the first QuantCalibSamples training inputs.
	ds := cfg.Data(cfg.Seed)
	m, err := Train(Baseline, cfg.Spec, ds, TrainOptions{Cores: 4, SGD: cfg.SGD, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	qn := nn.QuantizeNetwork(m.Net, ds.TrainX[:QuantCalibSamples], nn.CalibConfig{Method: fixed.CalibMaxAbs})
	if want := qn.Accuracy(ds.TestX, ds.TestY); r.FixedAcc != want {
		t.Errorf("FixedAcc = %v, want the int16 QuantNetwork's %v", r.FixedAcc, want)
	}
	if !strings.Contains(QuantTable(rows).Format(), "Fixed acc.") {
		t.Error("table missing header")
	}
}

func TestWeightSparsityHelper(t *testing.T) {
	spec := tinySpec()
	m, err := Train(Baseline, spec, tinyData(), tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	frac, total := weightSparsity(m.Net)
	if total == 0 {
		t.Fatal("no weights counted")
	}
	if frac > 0.05 {
		t.Errorf("dense net reports %.2f sparsity", frac)
	}
	// Zero one whole parameter and re-measure.
	p := m.Net.WeightParams()[0]
	p.W.Zero()
	frac2, _ := weightSparsity(m.Net)
	if frac2 <= frac {
		t.Error("sparsity must grow after zeroing a layer")
	}
}
