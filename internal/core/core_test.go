package core

import (
	"math"
	"strings"
	"testing"

	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
)

// tinySpec is a small MLP for fast pipeline tests.
func tinySpec() netzoo.NetSpec {
	return netzoo.NetSpec{
		Name: "tiny-mlp", InC: 1, InH: 8, InW: 8,
		Layers: []netzoo.LayerSpec{
			{Name: "fc1", Kind: netzoo.FC, Out: 32},
			{Name: "fc2", Kind: netzoo.FC, Out: 32},
			{Name: "fc3", Kind: netzoo.FC, Out: 4},
		},
	}
}

func tinyData() *data.Dataset {
	return data.Generate(data.Config{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Train: 80, Test: 32, Noise: 0.2, Jitter: 1, Seed: 5,
	})
}

func tinyTrainOptions(cores int) TrainOptions {
	sgd := nn.DefaultSGD()
	sgd.Epochs = 14
	sgd.LearningRate = 0.03
	return TrainOptions{
		Cores: cores, Lambda: 0.03, ThresholdRel: 0.3, SGD: sgd, Seed: 3,
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		Baseline: "Baseline", StructureLevel: "Structure-level", SS: "SS", SSMask: "SS_Mask",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme must still format")
	}
}

func TestTable1MatchesPlanTraffic(t *testing.T) {
	entries := Table1(16)
	if len(entries) == 0 {
		t.Fatal("Table1 empty")
	}
	// Every benchmark network must appear.
	nets := map[string]bool{}
	for _, e := range entries {
		nets[e.Network] = true
		if e.Bytes <= 0 {
			t.Errorf("%s/%s: %d bytes", e.Network, e.Layer, e.Bytes)
		}
	}
	for _, want := range []string{"MLP", "LeNet", "ConvNet", "AlexNet", "VGG19"} {
		if !nets[want] {
			t.Errorf("missing network %s", want)
		}
	}
	// Spot-check: MLP ip2 = 512 activations × 2B × 15 receivers.
	for _, e := range entries {
		if e.Network == "MLP" && e.Layer == "ip2" {
			if e.Bytes != 512*2*15 {
				t.Errorf("MLP ip2 = %d, want %d", e.Bytes, 512*2*15)
			}
		}
	}
	// VGG19's conv2 block must aggregate conv2_1 and conv2_2.
	seen := map[string]int{}
	for _, e := range entries {
		if e.Network == "VGG19" {
			seen[e.Layer]++
		}
	}
	if seen["conv2"] != 1 || seen["conv2_1"] != 0 {
		t.Errorf("VGG19 aggregation wrong: %v", seen)
	}
}

func TestTable1TableFormat(t *testing.T) {
	tbl := Table1Table(Table1(16))
	s := tbl.Format()
	for _, want := range []string{"TABLE I", "Network", "VGG19", "MLP"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestMotivationAlexNet(t *testing.T) {
	res, err := Motivation(netzoo.AlexNet(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommFraction <= 0 || res.CommFraction >= 1 {
		t.Errorf("comm fraction = %v", res.CommFraction)
	}
	out := res.Format()
	if !strings.Contains(out, "conv2") || !strings.Contains(out, "TOTAL") {
		t.Errorf("Format missing rows:\n%s", out)
	}
}

func TestTrainBaselinePipeline(t *testing.T) {
	m, err := Train(Baseline, tinySpec(), tinyData(), tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.8 {
		t.Errorf("baseline accuracy = %v", m.Accuracy)
	}
	if m.Masks != nil {
		t.Error("baseline must not carry masks")
	}
	if m.TrafficRate() != 1 {
		t.Errorf("dense traffic rate = %v, want 1", m.TrafficRate())
	}
	rep, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles() <= 0 {
		t.Error("simulation produced no cycles")
	}
}

func TestTrainSSMaskReducesTraffic(t *testing.T) {
	m, err := Train(SSMask, tinySpec(), tinyData(), tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.7 {
		t.Errorf("SS_Mask accuracy = %v", m.Accuracy)
	}
	if m.Masks == nil {
		t.Fatal("SS_Mask must produce masks")
	}
	if r := m.TrafficRate(); r >= 1 || r < 0 {
		t.Errorf("traffic rate = %v, want in [0, 1)", r)
	}
}

func TestTrainRejectsBadOptions(t *testing.T) {
	if _, err := Train(Baseline, tinySpec(), tinyData(), TrainOptions{}); err == nil {
		t.Error("zero cores must error")
	}
	opt := tinyTrainOptions(4)
	if _, err := Train(Scheme(99), tinySpec(), tinyData(), opt); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestFig6bOutput(t *testing.T) {
	m, err := Train(SSMask, tinySpec(), tinyData(), tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	s := Fig6b(m)
	if !strings.Contains(s, "Fig. 6(b)") || !strings.Contains(s, "1") {
		t.Errorf("Fig6b output:\n%s", s)
	}
	base, err := Train(Baseline, tinySpec(), tinyData(), tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Fig6b(base), "no learned masks") {
		t.Error("Fig6b of baseline should say there are no masks")
	}
}

func TestStructQuickPipeline(t *testing.T) {
	// The smallest possible structure-level run: 4 cores, micro nets.
	opt := QuickStructOptions()
	opt.Cores = 4
	opt.KernelsBase = [3]int{8, 8, 16}
	opt.KernelsWide = [3]int{8, 12, 24}
	opt.ImgSize = 12
	opt.Train, opt.Test = 60, 24
	opt.SGD.Epochs = 3
	rows, err := Table3Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Errorf("Parallel#1 speedup = %v", rows[0].Speedup)
	}
	// Grouped variants must beat the baseline in time and comm energy.
	for _, r := range rows[1:] {
		if r.Speedup <= 1 {
			t.Errorf("%s speedup = %v, want > 1", r.Name, r.Speedup)
		}
		if r.CommEnergyRed <= 0 {
			t.Errorf("%s comm energy reduction = %v", r.Name, r.CommEnergyRed)
		}
	}
	tbl := Table3Table(rows)
	if !strings.Contains(tbl.Format(), "Parallel#3") {
		t.Error("Table3Table missing rows")
	}
}

func TestScaleQuickPipeline(t *testing.T) {
	opt := QuickStructOptions()
	opt.KernelsWide = [3]int{8, 16, 32}
	opt.ImgSize = 12
	opt.Train, opt.Test = 60, 24
	opt.SGD.Epochs = 3
	rows, err := Table5Fig8(opt, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GroupNum != r.Cores {
			t.Errorf("groups %d != cores %d", r.GroupNum, r.Cores)
		}
		if r.Speedup <= 1 {
			t.Errorf("%d cores: speedup %v", r.Cores, r.Speedup)
		}
	}
	if !strings.Contains(Table5Table(rows).Format(), "TABLE V") {
		t.Error("Table5Table missing title")
	}
}

func TestSparseTableFormat(t *testing.T) {
	rows := []SparseRow{
		{Network: "MLP", Scheme: Baseline, Cores: 16, Accuracy: 0.98, TrafficRate: 1, Speedup: 1, WeightedHopRate: 1},
		{Network: "MLP", Scheme: SSMask, Cores: 16, Accuracy: 0.97, TrafficRate: 0.2, Speedup: 1.5, EnergyRed: 0.8, WeightedHopRate: 0.1},
	}
	s := SparseTable("TABLE IV", rows).Format()
	for _, want := range []string{"SS_Mask", "1.50x", "80%", "98.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestTable4NetsProfiles(t *testing.T) {
	q := Table4Nets(Quick)
	d := Table4Nets(Default)
	if len(q) != 4 || len(d) != 4 {
		t.Fatalf("profiles: quick %d, default %d nets", len(q), len(d))
	}
	names := []string{"MLP", "LeNet", "ConvNet", "CaffeNet"}
	for i := range q {
		if q[i].Name != names[i] || d[i].Name != names[i] {
			t.Errorf("net %d: %s / %s, want %s", i, q[i].Name, d[i].Name, names[i])
		}
	}
	// Quick CaffeNet uses the tiny spec, Default the reduced one.
	if q[3].Spec.Name == d[3].Spec.Name {
		t.Error("quick and default CaffeNet should differ")
	}
}

func TestTrainPhaseKnobs(t *testing.T) {
	opt := tinyTrainOptions(4)
	opt.SparsifyEpochs = 2
	opt.FinetuneEpochs = -1 // disabled
	m, err := Train(SSMask, tinySpec(), tinyData(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Masks == nil {
		t.Fatal("masks missing with custom phase lengths")
	}
	// The plan must carry the learned masks even without fine-tuning.
	masked := false
	for k := range m.Plan.Layers {
		if m.Plan.Layers[k].Mask != nil {
			masked = true
		}
	}
	if !masked {
		t.Error("plan has no masks installed")
	}
}

func TestTrainedModelQuantizedAccuracy(t *testing.T) {
	ds := tinyData()
	m, err := Train(Baseline, tinySpec(), ds, tinyTrainOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	floatAcc := m.Accuracy
	delta := m.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
	// The int16 path should track the float accuracy closely.
	if m.QuantAccuracy < floatAcc-0.15 {
		t.Errorf("quantized accuracy %v far below float %v", m.QuantAccuracy, floatAcc)
	}
	if m.Accuracy != floatAcc {
		t.Errorf("Quantize changed the float accuracy %v -> %v", floatAcc, m.Accuracy)
	}
	if want := math.Abs(floatAcc - m.QuantAccuracy); delta != want || m.AccuracyDelta != want {
		t.Errorf("delta %v / AccuracyDelta %v, want |float - quant| = %v", delta, m.AccuracyDelta, want)
	}
	if got := m.QNet.Accuracy(ds.TestX, ds.TestY); got != m.QuantAccuracy {
		t.Errorf("QNet test accuracy %v != recorded QuantAccuracy %v", got, m.QuantAccuracy)
	}
}

func TestBarChartFormat(t *testing.T) {
	c := BarChart{Title: "demo", Unit: "x"}
	c.Add("a", 2)
	c.Add("bb", 1)
	c.Add("ccc", 0)
	out := c.Format(10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "██████████ 2.00x") {
		t.Errorf("chart:\n%s", out)
	}
	// Half-scale bar for the half value.
	if !strings.Contains(out, "█████ 1.00x") {
		t.Errorf("scaled bar missing:\n%s", out)
	}
	if !strings.Contains(out, "0.00x") {
		t.Errorf("zero row missing:\n%s", out)
	}
}

func TestFigCharts(t *testing.T) {
	s := Fig7Chart([]StructRow{{Name: "Parallel#1", Speedup: 1}, {Name: "Parallel#2", Speedup: 2, CommEnergyRed: 0.5}})
	if !strings.Contains(s, "Fig. 7") || !strings.Contains(s, "Parallel#2") {
		t.Errorf("Fig7Chart:\n%s", s)
	}
	s8 := Fig8Chart([]ScaleRow{{Cores: 4, Speedup: 1.5, CommEnergyRed: 0.3}, {Cores: 8, Speedup: 2, CommEnergyRed: 0.4}})
	if !strings.Contains(s8, "Fig. 8") || !strings.Contains(s8, "8 cores") {
		t.Errorf("Fig8Chart:\n%s", s8)
	}
}

func TestEvalSparseNetMicro(t *testing.T) {
	cfg := SparseNetConfig{
		Name: "tiny", Spec: tinySpec(),
		Data: func(int64) *data.Dataset { return tinyData() },
		Recipe: Recipe{
			Lambda: 0.03, LambdaSS: 0.02, ThresholdRel: 0.3,
			SGD:  tinyTrainOptions(4).SGD,
			Seed: 3,
		},
	}
	rows, err := Table4([]SparseNetConfig{cfg}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want Baseline/SS/SS_Mask", len(rows))
	}
	if rows[0].Scheme != Baseline || rows[0].Speedup != 1 || rows[0].TrafficRate != 1 {
		t.Errorf("baseline row: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.TrafficRate > 1 || r.TrafficRate < 0 {
			t.Errorf("%s traffic rate %v", r.Scheme, r.TrafficRate)
		}
		if r.WeightedHopRate > r.TrafficRate+0.2 {
			t.Errorf("%s hop rate %v should not exceed traffic rate %v by much",
				r.Scheme, r.WeightedHopRate, r.TrafficRate)
		}
	}
	// Table6 over one core count reuses the same machinery.
	rows6, err := Table6(cfg, []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 3 || rows6[0].Cores != 4 {
		t.Errorf("table6 rows: %+v", rows6)
	}
}
