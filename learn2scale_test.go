package learn2scale_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"learn2scale"
)

func TestFacadeSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec learn2scale.NetSpec
		name string
	}{
		{learn2scale.MLP(), "MLP"},
		{learn2scale.LeNet(), "LeNet"},
		{learn2scale.ConvNet(), "ConvNet"},
		{learn2scale.CaffeNet(), "CaffeNet"},
		{learn2scale.AlexNet(), "AlexNet"},
		{learn2scale.VGG19(), "VGG19"},
	} {
		if tc.spec.Name != tc.name {
			t.Errorf("spec name %q, want %q", tc.spec.Name, tc.name)
		}
		if tc.spec.Classes() < 10 {
			t.Errorf("%s classes = %d", tc.name, tc.spec.Classes())
		}
	}
	if s := learn2scale.ConvNetI10([3]int{64, 128, 256}, 16, 64); len(s.Layers) == 0 {
		t.Error("ConvNetI10 empty")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if ds := learn2scale.MNISTLike(10, 5, 1); len(ds.TrainX) != 10 {
		t.Error("MNISTLike size")
	}
	if ds := learn2scale.CIFARLike(10, 5, 1); ds.InShape[0] != 3 {
		t.Error("CIFARLike channels")
	}
	if ds := learn2scale.ImageNet10Like(32, 10, 5, 1); ds.InShape[1] != 32 {
		t.Error("ImageNet10Like size")
	}
}

func TestFacadeSystemAndPlan(t *testing.T) {
	cfg := learn2scale.DefaultSystemConfig(16)
	sys, err := learn2scale.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := learn2scale.NewPlan(learn2scale.MLP(), 16)
	rep, err := sys.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles() <= 0 {
		t.Error("no cycles simulated")
	}
	c := learn2scale.NewCompare(rep, rep)
	if c.SystemSpeedup != 1 {
		t.Errorf("self-compare speedup = %v", c.SystemSpeedup)
	}
}

func TestFacadeTable1(t *testing.T) {
	tbl := learn2scale.Table1(16)
	if !strings.Contains(tbl.Format(), "VGG19") {
		t.Error("Table1 missing VGG19")
	}
}

func TestFacadeMotivation(t *testing.T) {
	res, err := learn2scale.Motivation(learn2scale.AlexNet(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommFraction <= 0 {
		t.Error("no communication measured")
	}
}

func TestFacadeTrainTiny(t *testing.T) {
	ds := learn2scale.MNISTLike(80, 40, 2)
	opt := learn2scale.DefaultTrainOptions(4)
	opt.SGD.Epochs = 3
	opt.SGD.LearningRate = 0.03
	m, err := learn2scale.Train(learn2scale.SSMask, learn2scale.MLP(), ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy <= 0.2 {
		t.Errorf("accuracy = %v", m.Accuracy)
	}
	if !strings.Contains(learn2scale.Fig6b(m), "Fig. 6(b)") {
		t.Error("Fig6b output malformed")
	}
	if _, err := m.Simulate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTable4Nets(t *testing.T) {
	if nets := learn2scale.Table4Nets(learn2scale.Quick); len(nets) != 4 {
		t.Errorf("Table4Nets = %d nets", len(nets))
	}
}

// TestConcurrentSessions runs several independent Train+Simulate
// sessions from concurrent goroutines. Under -race this stresses the
// worker pool's shared state (the global helper budget, pooled
// chunk jobs); functionally it checks that sessions don't perturb
// each other's results.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 4
	accs := make([]float64, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ds := learn2scale.MNISTLike(60, 30, 5)
			opt := learn2scale.DefaultTrainOptions(4)
			opt.SGD.Epochs = 2
			opt.SGD.LearningRate = 0.03
			m, err := learn2scale.Train(learn2scale.SS, learn2scale.MLP(), ds, opt)
			if err != nil {
				errs[s] = err
				return
			}
			if _, err := m.Simulate(); err != nil {
				errs[s] = err
				return
			}
			accs[s] = m.Accuracy
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
	}
	for s := 1; s < sessions; s++ {
		if accs[s] != accs[0] {
			t.Errorf("session %d accuracy %v differs from session 0's %v (identical inputs)",
				s, accs[s], accs[0])
		}
	}
}

func TestFacadePlacementAndTrace(t *testing.T) {
	plan := learn2scale.NewPlan(learn2scale.MLP(), 8)
	p := learn2scale.OptimizePlacement(plan, 500, 1)
	if !p.Valid() {
		t.Fatal("invalid placement")
	}
	tr := learn2scale.TraceOf(plan)
	if tr.TotalBytes() != plan.TotalTraffic() {
		t.Errorf("trace bytes %d != plan %d", tr.TotalBytes(), plan.TotalTraffic())
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := learn2scale.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Network != "MLP" {
		t.Errorf("round trip network %q", back.Network)
	}
}
