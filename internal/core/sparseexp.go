package core

import (
	"fmt"
	"io"
	"strings"

	"learn2scale/internal/cmp"
	"learn2scale/internal/data"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/sparsity"
)

// SparseNetConfig describes one benchmark network of the sparsified-
// parallelization experiments (Table IV / Table VI): its architecture,
// dataset generator and training recipe.
type SparseNetConfig struct {
	Name string
	Spec netzoo.NetSpec
	Data func(seed int64) *data.Dataset
	Recipe
}

// NetByName returns the network of nets whose Name equals name in any
// letter case.
func NetByName(nets []SparseNetConfig, name string) (SparseNetConfig, bool) {
	for _, n := range nets {
		if strings.EqualFold(n.Name, name) {
			return n, true
		}
	}
	return SparseNetConfig{}, false
}

// SizedData returns the dataset l2s-train and l2s-sim train the network
// on: MLP and LeNet on train/test MNIST-like examples, ConvNet on
// CIFAR-like ones, and any other network on its recipe's own Data,
// whose sizes are fixed.
func (c SparseNetConfig) SizedData(train, test int, seed int64) *data.Dataset {
	switch c.Name {
	case "MLP", "LeNet":
		return data.MNISTLike(train, test, seed)
	case "ConvNet":
		return data.CIFARLike(train, test, seed)
	}
	return c.Data(seed)
}

// Profile selects the scale of the training-based experiments.
type Profile int

// Quick shrinks datasets and epochs for tests; Default matches the
// reduced-but-faithful scale documented in DESIGN.md.
const (
	Quick Profile = iota
	Default
)

// Table4Nets returns the four benchmark networks of Table IV at the
// given profile: MLP and LeNet on MNIST-like data, ConvNet on
// CIFAR-like data, and CaffeNet (reduced) on ImageNet10-like data.
func Table4Nets(p Profile) []SparseNetConfig {
	train, test, epochs := 600, 200, 12
	if p == Quick {
		train, test, epochs = 200, 80, 8
	}
	sgd := nn.DefaultSGD()
	sgd.Epochs = epochs
	sgd.LearningRate = 0.03
	convSGD := sgd
	convSGD.LearningRate = 0.005

	nets := []SparseNetConfig{
		{
			Name: "MLP", Spec: netzoo.MLP(),
			Data:   func(seed int64) *data.Dataset { return data.MNISTLike(train, test, seed) },
			Recipe: Recipe{Lambda: 0.006, ThresholdRel: 0.3, SGD: sgd, Seed: 11},
		},
		{
			Name: "LeNet", Spec: netzoo.LeNet(),
			Data:   func(seed int64) *data.Dataset { return data.MNISTLike(train, test, seed) },
			Recipe: Recipe{Lambda: 0.03, LambdaSS: 0.015, ThresholdRel: 0.3, SGD: convSGD, Seed: 12},
		},
		{
			Name: "ConvNet", Spec: netzoo.ConvNet(),
			Data:   func(seed int64) *data.Dataset { return data.CIFARLike(train, test, seed) },
			Recipe: Recipe{Lambda: 0.02, LambdaSS: 0.016, ThresholdRel: 0.3, SGD: convSGD, Seed: 13},
		},
	}
	caffeSGD := convSGD
	caffeSGD.LearningRate = 0.002
	caffeSGD.Epochs += 2
	caffe := Recipe{Lambda: 0.04, LambdaSS: 0.015, ThresholdRel: 0.3, SGD: caffeSGD, Seed: 14}
	if p == Quick {
		nets = append(nets, SparseNetConfig{
			Name: "CaffeNet", Spec: caffeNetTiny(),
			Data: func(seed int64) *data.Dataset {
				return data.ImageNet10Like(24, train*3/4, test/2, seed)
			},
			Recipe: caffe,
		})
	} else {
		nets = append(nets, SparseNetConfig{
			Name: "CaffeNet", Spec: caffeNetMid(),
			Data: func(seed int64) *data.Dataset {
				return data.ImageNet10Like(32, train/2, test/2, seed)
			},
			Recipe: caffe,
		})
	}
	return nets
}

// caffeNetMid is the Default-profile CaffeNet stand-in: the full
// five-conv/three-fc topology with channels cut 2× and 3×32×32 input,
// sized so single-core pure-Go training finishes in minutes (see
// DESIGN.md §2 on scale substitutions; netzoo.CaffeNetReduced keeps
// the full channel counts for users with more patience).
func caffeNetMid() netzoo.NetSpec {
	return netzoo.NetSpec{
		Name: "CaffeNet-mid", InC: 3, InH: 32, InW: 32,
		Layers: []netzoo.LayerSpec{
			{Name: "conv1", Kind: netzoo.Conv, OutC: 48, K: 5, Stride: 2},
			{Name: "conv2", Kind: netzoo.Conv, OutC: 128, K: 3, Stride: 1, Pad: 1},
			{Name: "pool2", Kind: netzoo.Pool, K: 2, Stride: 2},
			{Name: "conv3", Kind: netzoo.Conv, OutC: 192, K: 3, Stride: 1, Pad: 1},
			{Name: "conv4", Kind: netzoo.Conv, OutC: 192, K: 3, Stride: 1, Pad: 1},
			{Name: "conv5", Kind: netzoo.Conv, OutC: 128, K: 3, Stride: 1, Pad: 1},
			{Name: "pool5", Kind: netzoo.Pool, K: 2, Stride: 2},
			{Name: "ip1", Kind: netzoo.FC, Out: 192},
			{Name: "ip2", Kind: netzoo.FC, Out: 96},
			{Name: "ip3", Kind: netzoo.FC, Out: 10},
		},
	}
}

// caffeNetTiny is a CaffeNet-topology network small enough for unit
// tests: same five-conv/three-fc structure, channels cut 4×.
func caffeNetTiny() netzoo.NetSpec {
	return netzoo.NetSpec{
		Name: "CaffeNet-tiny", InC: 3, InH: 24, InW: 24,
		Layers: []netzoo.LayerSpec{
			{Name: "conv1", Kind: netzoo.Conv, OutC: 24, K: 5, Stride: 2},
			{Name: "conv2", Kind: netzoo.Conv, OutC: 64, K: 3, Stride: 1, Pad: 1},
			{Name: "pool2", Kind: netzoo.Pool, K: 2, Stride: 2},
			{Name: "conv3", Kind: netzoo.Conv, OutC: 96, K: 3, Stride: 1, Pad: 1},
			{Name: "conv4", Kind: netzoo.Conv, OutC: 96, K: 3, Stride: 1, Pad: 1},
			{Name: "conv5", Kind: netzoo.Conv, OutC: 64, K: 3, Stride: 1, Pad: 1},
			{Name: "pool5", Kind: netzoo.Pool, K: 2, Stride: 2},
			{Name: "ip1", Kind: netzoo.FC, Out: 128},
			{Name: "ip2", Kind: netzoo.FC, Out: 64},
			{Name: "ip3", Kind: netzoo.FC, Out: 10},
		},
	}
}

// SparseRow is one row of Table IV (or Table VI).
type SparseRow struct {
	Network string
	Scheme  Scheme
	Cores   int

	Accuracy    float64
	TrafficRate float64 // vs dense baseline
	Speedup     float64 // system speedup vs baseline
	EnergyRed   float64 // NoC energy reduction vs baseline
	// WeightedHopRate is traffic×distance relative to baseline — the
	// quantity SS_Mask optimizes beyond SS.
	WeightedHopRate float64
}

// EvalSparseNet trains Baseline/SS/SS_Mask for one network on the
// given core count and returns the three rows. With a nil log the
// three schemes train concurrently (they share nothing but the
// read-only dataset); the comparison rows assemble afterwards from
// the baseline's report.
func EvalSparseNet(cfg SparseNetConfig, cores int, log io.Writer) ([]SparseRow, error) {
	ds := cfg.Data(cfg.Seed)
	schemes := []Scheme{Baseline, SS, SSMask}
	dist := cmpMeshDistances(cores)
	type outcome struct {
		m    *TrainedModel
		rep  cmp.Report
		hops int64
	}
	outs, err := sweep(len(schemes), log == nil, func(i int) (outcome, error) {
		scheme := schemes[i]
		opt := cfg.TrainOptions(scheme, cores)
		opt.Log = log
		if log != nil {
			fmt.Fprintf(log, "== %s: training %s on %d cores\n", cfg.Name, scheme, cores)
		}
		m, err := Train(scheme, cfg.Spec, ds, opt)
		if err != nil {
			return outcome{}, fmt.Errorf("core: %s/%s: %w", cfg.Name, scheme, err)
		}
		rep, err := m.Simulate()
		if err != nil {
			return outcome{}, fmt.Errorf("core: %s/%s: %w", cfg.Name, scheme, err)
		}
		o := outcome{m: m, rep: rep}
		for k := range m.Plan.Layers {
			o.hops += m.Plan.LayerTraffic(k).WeightedHops(dist)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []SparseRow
	for i, o := range outs {
		row := SparseRow{
			Network: cfg.Name, Scheme: schemes[i], Cores: cores,
			Accuracy: o.m.Accuracy, TrafficRate: o.m.TrafficRate(),
		}
		if i == 0 {
			row.Speedup, row.WeightedHopRate = 1, 1
		} else {
			c := cmp.NewCompare(outs[0].rep, o.rep)
			row.Speedup = c.SystemSpeedup
			row.EnergyRed = c.NoCEnergyReduction
			if outs[0].hops > 0 {
				row.WeightedHopRate = float64(o.hops) / float64(outs[0].hops)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func cmpMeshDistances(cores int) [][]int {
	return cmp.DefaultConfig(cores).Mesh.DistanceMatrix()
}

// Table4 runs the full communication-aware sparsified parallelization
// evaluation over the benchmark networks on 16 cores. With a nil log
// the networks evaluate concurrently.
func Table4(nets []SparseNetConfig, cores int, log io.Writer) ([]SparseRow, error) {
	per, err := sweep(len(nets), log == nil, func(i int) ([]SparseRow, error) {
		return EvalSparseNet(nets[i], cores, log)
	})
	if err != nil {
		return nil, err
	}
	var rows []SparseRow
	for _, r := range per {
		rows = append(rows, r...)
	}
	return rows, nil
}

// Table6 evaluates LeNet's sparsified parallelization at several core
// counts (the paper uses 8 and 32). With a nil log the core counts
// evaluate concurrently.
func Table6(cfg SparseNetConfig, coreCounts []int, log io.Writer) ([]SparseRow, error) {
	per, err := sweep(len(coreCounts), log == nil, func(i int) ([]SparseRow, error) {
		return EvalSparseNet(cfg, coreCounts[i], log)
	})
	if err != nil {
		return nil, err
	}
	var rows []SparseRow
	for _, r := range per {
		rows = append(rows, r...)
	}
	return rows, nil
}

// SparseTable formats Table IV / Table VI rows.
func SparseTable(title string, rows []SparseRow) Table {
	t := Table{
		Title: title,
		Header: []string{"Network", "Cores", "Type", "Accu.", "NoC traffic rate",
			"System speedup", "Energy reduction", "Traffic×dist rate"},
	}
	for _, r := range rows {
		t.AddRow(r.Network, fmt.Sprintf("%d", r.Cores), r.Scheme.String(),
			fmtAccP(r.Accuracy), fmtPct(r.TrafficRate), fmtX(r.Speedup),
			fmtPct(r.EnergyRed), fmtPct(r.WeightedHopRate))
	}
	return t
}

// Fig6b renders the learned group-level occupancy matrix of the first
// masked layer of a trained model — the paper's Fig. 6(b).
func Fig6b(m *TrainedModel) string {
	for k, mask := range m.Masks {
		if mask != nil {
			name := m.Plan.Layers[k].Shape.Spec.Name
			return fmt.Sprintf("Fig. 6(b): %s %s group occupancy (1 = block kept):\n%s",
				m.Spec.Name, name, sparsity.OccupancyString(mask))
		}
	}
	return "Fig. 6(b): model has no learned masks (train with SS or SS_Mask)"
}
