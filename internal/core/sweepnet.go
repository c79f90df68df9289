package core

import (
	"fmt"
	"io"

	"learn2scale/internal/data"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
)

// SweepNetwork is the network the fault and pipeline sweeps share, so
// the two experiments compare: ConvNet-I10 with Kernels conv kernel
// counts on ImgSize×ImgSize ImageNet10-like inputs (Train/Test
// examples), trained under the four schemes for a Cores-core mesh.
type SweepNetwork struct {
	Kernels [3]int
	ImgSize int
	Cores   int
	Train   int
	Test    int

	// Recipe trains the sparsified schemes (SS uses LambdaSS when
	// nonzero, else Lambda; SS_Mask uses Lambda).
	Recipe

	// Log receives progress lines when non-nil; a nil Log runs the
	// sweep cells concurrently.
	Log io.Writer
	// Obs, when non-nil, receives one stable gauge per sweep cell under
	// names fixed by the grid position (not by outcome), so a sweep
	// leaves a deterministic flight record at every worker count.
	Obs *obs.Registry
}

// defaultSweepNetwork is the headline sweep network: the mid-size
// ConvNet on the paper's 16-core mesh.
func defaultSweepNetwork() SweepNetwork {
	sgd := nn.DefaultSGD()
	sgd.Epochs = 10
	sgd.LearningRate = 0.005
	return SweepNetwork{
		Kernels: [3]int{16, 32, 64},
		ImgSize: 16,
		Cores:   16,
		Train:   120,
		Test:    200,
		Recipe:  Recipe{Lambda: 0.02, LambdaSS: 0.016, ThresholdRel: 0.3, SGD: sgd, Seed: 7},
	}
}

// quickSweepNetwork shrinks the sweep network for smoke tests: smaller
// images, fewer test examples and epochs. Kernel counts stay at the
// default so the 16-way structural grouping remains well-formed.
func quickSweepNetwork() SweepNetwork {
	n := defaultSweepNetwork()
	n.ImgSize = 12
	n.Test = 48
	n.SGD.Epochs = 5
	return n
}

// trainSchemes trains the network once under each of the four schemes
// (StructureLevel with one conv group per core) and returns the models
// in scheme order with the dataset they trained on. name tags the
// progress lines and errors ("faults", "pipeline").
func (n SweepNetwork) trainSchemes(name string) ([]*TrainedModel, *data.Dataset, error) {
	ds := data.ImageNet10Like(n.ImgSize, n.Train, n.Test, n.Seed)
	schemes := []Scheme{Baseline, StructureLevel, SS, SSMask}
	models, err := sweep(len(schemes), n.Log == nil, func(i int) (*TrainedModel, error) {
		scheme := schemes[i]
		groups := 1
		if scheme == StructureLevel {
			groups = n.Cores
		}
		spec := netzoo.ConvNetI10(n.Kernels, groups, n.ImgSize)
		opt := n.TrainOptions(scheme, n.Cores)
		opt.Log = n.Log
		if n.Log != nil {
			fmt.Fprintf(n.Log, "== %s: training %s (%s)\n", name, scheme, spec.Name)
		}
		m, err := Train(scheme, spec, ds, opt)
		if err != nil {
			return nil, fmt.Errorf("core: %s/%v: %w", name, scheme, err)
		}
		return m, nil
	})
	return models, ds, err
}
