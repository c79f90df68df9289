// Package core implements the paper's contribution: the three schemes
// for parallelizing single-pass neural-network inference on a mesh CMP
// of neural-accelerator cores —
//
//  1. traditional parallelization (kernel-split, all-to-all activation
//     broadcast at every layer transition),
//  2. structure-level parallelization (AlexNet-style channel grouping
//     aligned with the cores, eliminating synchronization in split
//     layers), and
//  3. communication-aware sparsified parallelization (group-Lasso
//     training that lets the network *learn* a core-block sparsity
//     pattern: SS with uniform strength, SS_Mask with mesh-distance
//     strength),
//
// plus the experiment harness that regenerates every table and figure
// of the paper's evaluation from these building blocks.
package core

import (
	"fmt"
	"io"
	"math/rand"

	"learn2scale/internal/cmp"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/partition"
	"learn2scale/internal/sparsity"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// Scheme selects a parallelization strategy.
type Scheme int

// The paper's schemes. Baseline is the traditional parallelization
// every comparison normalizes against.
const (
	Baseline Scheme = iota
	StructureLevel
	SS
	SSMask
)

// schemeNames holds each scheme's lowercase names: name is how the
// -scheme flags and the serving API spell it, slug how experiment
// records spell it in metric names.
var schemeNames = [...]struct{ name, slug string }{
	Baseline:       {"baseline", "baseline"},
	StructureLevel: {"struct", "structure"},
	SS:             {"ss", "ss"},
	SSMask:         {"ssmask", "ssmask"},
}

// Name returns the scheme's lowercase name, the one ParseScheme reads:
// baseline, struct, ss or ssmask.
func (s Scheme) Name() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s].name
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// slug returns the scheme's name in experiment metric names.
func (s Scheme) slug() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s].slug
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// ParseScheme returns the scheme whose Name is name, and false when
// there is none. Names are case-sensitive.
func ParseScheme(name string) (Scheme, bool) {
	for s, n := range schemeNames {
		if n.name == name {
			return Scheme(s), true
		}
	}
	return 0, false
}

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case StructureLevel:
		return "Structure-level"
	case SS:
		return "SS"
	case SSMask:
		return "SS_Mask"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// TrainOptions configures one training run of a scheme.
type TrainOptions struct {
	Cores int
	// Lambda is the group-Lasso strength λ_g (ignored by Baseline and
	// StructureLevel).
	Lambda float64
	// ThresholdRel prunes blocks whose RMS falls below this fraction
	// of the layer RMS after training.
	ThresholdRel float64
	// SparsifyEpochs is the length of the group-Lasso phase that runs
	// after dense pretraining (sparsified schemes only). Zero means
	// SGD.Epochs. Sparsifying a converged model rather than training
	// with the penalty from scratch is what the paper does (it
	// sparsifies pretrained Caffe models) and is far more stable: the
	// data loss defends the blocks that matter while the rest decay.
	SparsifyEpochs int
	// FinetuneEpochs continues training after pruning with the zeroed
	// blocks frozen (mask projection), recovering the accuracy the
	// regularizer cost. Negative disables; zero means SGD.Epochs/2.
	FinetuneEpochs int
	SGD            nn.SGDConfig
	Seed           int64
	// Log receives progress lines when non-nil.
	Log io.Writer
	// Obs, when non-nil, receives per-phase, per-epoch training
	// metrics (scopes train.pretrain / train.sparsify / train.finetune,
	// or plain train for unregularized schemes), per-layer forward/
	// backward timing spans, per-epoch prunable-group counts during
	// sparsification, and the final pruned/total group counters. It is
	// carried on the TrainedModel so Simulate reports into it too.
	Obs *obs.Registry
}

// Recipe is how one benchmark network trains: the group-Lasso
// strengths, the prune threshold, the optimizer and the seed. Its
// TrainOptions method is the one place the per-scheme strength is
// chosen.
type Recipe struct {
	// Lambda is the group-Lasso strength λ_g for SS_Mask. LambdaSS,
	// when nonzero, overrides it for the SS scheme: with uniform
	// strengths the same pressure spreads over every block (nothing
	// dies, all weights shrink), so SS typically needs a gentler λ
	// than SS_Mask, whose pressure concentrates on the few distant
	// blocks.
	Lambda       float64
	LambdaSS     float64
	ThresholdRel float64
	SGD          nn.SGDConfig
	Seed         int64
}

// TrainOptions returns the options that train scheme on cores under
// the recipe: SS at LambdaSS when it is set, every other scheme at
// Lambda. Baseline and StructureLevel read neither λ nor ThresholdRel.
func (r Recipe) TrainOptions(scheme Scheme, cores int) TrainOptions {
	lambda := r.Lambda
	if scheme == SS && r.LambdaSS != 0 {
		lambda = r.LambdaSS
	}
	return TrainOptions{
		Cores: cores, Lambda: lambda, ThresholdRel: r.ThresholdRel,
		SGD: r.SGD, Seed: r.Seed,
	}
}

// DefaultTrainOptions returns a configuration suitable for the
// reduced-scale networks in this repository.
func DefaultTrainOptions(cores int) TrainOptions {
	sgd := nn.DefaultSGD()
	sgd.Epochs = 12
	return TrainOptions{
		Cores:        cores,
		Lambda:       0.0025,
		ThresholdRel: 0.3,
		SGD:          sgd,
		Seed:         1,
	}
}

// TrainedModel is the outcome of training one scheme on one dataset:
// the network, its CMP mapping (with learned or structural block
// masks installed) and its measured accuracy.
type TrainedModel struct {
	Scheme   Scheme
	Spec     netzoo.NetSpec
	Net      *nn.Network
	Plan     *partition.Plan
	Masks    []partition.BlockMask // per synaptic layer; nil = dense
	Accuracy float64
	// Penalty is the final group-Lasso penalty (0 for unregularized).
	Penalty float64
	// Precision is the inference datapath: Float32 until Quantize is
	// called, Int16 after. Simulation consumes it through cmp/nna.
	Precision fixed.Precision
	// QNet is the scaled-int16 inference path built by Quantize (nil
	// before quantization), with QuantAccuracy its test-set top-1 and
	// AccuracyDelta = |Accuracy - QuantAccuracy|.
	QNet          *nn.QuantNetwork
	QuantAccuracy float64
	AccuracyDelta float64
	// Obs is the registry training reported into (nil when detached);
	// Simulate propagates it to the CMP simulation.
	Obs *obs.Registry
}

// Train trains spec on ds under the given scheme and returns the
// trained model with its partition plan ready for cmp simulation.
//
// Baseline and StructureLevel train without structured regularization
// (the structure, if any, is baked into the spec's conv groups). SS
// and SSMask train with group Lasso and threshold the learned blocks.
func Train(scheme Scheme, spec netzoo.NetSpec, ds *data.Dataset, opt TrainOptions) (*TrainedModel, error) {
	switch scheme {
	case Baseline, StructureLevel:
		return trainCustom(scheme, spec, ds, nil, opt)
	case SS:
		return trainCustom(scheme, spec, ds, sparsity.UniformStrength(opt.Cores), opt)
	case SSMask:
		return trainCustom(scheme, spec, ds, sparsity.DistanceStrength(topology.ForCores(opt.Cores)), opt)
	}
	return nil, fmt.Errorf("core: unknown scheme %v", scheme)
}

// trainCustom is the shared training pipeline; a nil strength matrix
// means unregularized training, otherwise group Lasso with the given
// per-block strengths is applied, thresholded and fine-tuned.
func trainCustom(scheme Scheme, spec netzoo.NetSpec, ds *data.Dataset, strength [][]float64, opt TrainOptions) (*TrainedModel, error) {
	if opt.Cores <= 0 {
		return nil, fmt.Errorf("core: TrainOptions.Cores = %d", opt.Cores)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	net := spec.Build(rng)
	plan := partition.NewPlan(spec, opt.Cores)

	var reg *sparsity.GroupLasso
	if strength != nil {
		var err error
		reg, err = sparsity.ForPlan(net, plan, strength, opt.Lambda)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", scheme, err)
		}
	}

	// Phase budget: sparsified schemes run pretrain + sparsify +
	// fine-tune; the unregularized schemes get the same total number
	// of plain epochs so comparisons are budget-fair.
	sgd := opt.SGD
	sgd.Seed = opt.Seed
	sgd.Log = opt.Log
	sgd.Obs = opt.Obs
	net.SetObs(opt.Obs)
	spEpochs := opt.SparsifyEpochs
	if spEpochs == 0 {
		spEpochs = sgd.Epochs
	}
	ftEpochs := opt.FinetuneEpochs
	if ftEpochs == 0 {
		ftEpochs = sgd.Epochs / 2
	}
	if ftEpochs < 0 {
		ftEpochs = 0
	}

	var stats nn.EpochStats
	if reg == nil {
		all := sgd
		all.Epochs = sgd.Epochs + spEpochs + ftEpochs
		stats = (&nn.Trainer{Net: net, Config: all}).Fit(ds.TrainX, ds.TrainY)
	} else {
		// Phase 1: dense pretraining.
		pre := sgd
		pre.ObsScope = "train.pretrain"
		(&nn.Trainer{Net: net, Config: pre}).Fit(ds.TrainX, ds.TrainY)
		// Phase 2: sparsify the pretrained model.
		sp := sgd
		sp.Epochs = spEpochs
		sp.Seed = opt.Seed + 17
		sp.ObsScope = "train.sparsify"
		spTrainer := &nn.Trainer{Net: net, Config: sp, Reg: reg}
		if opt.Obs != nil {
			// Chart the regularizer collapsing block norms: after each
			// sparsify epoch, count the groups Threshold would prune.
			rel := opt.ThresholdRel
			spTrainer.AfterEpoch = func(es nn.EpochStats) bool {
				opt.Obs.Gauge(fmt.Sprintf("sparsity.epoch.%02d.prunable_groups", es.Epoch),
					obs.Stable).Set(float64(reg.PrunableGroups(rel)))
				return true
			}
		}
		stats = spTrainer.Fit(ds.TrainX, ds.TrainY)
	}

	m := &TrainedModel{
		Scheme:  scheme,
		Spec:    spec,
		Net:     net,
		Plan:    plan,
		Penalty: stats.Penalty,
		Obs:     opt.Obs,
	}
	if reg != nil {
		masks := reg.Threshold(opt.ThresholdRel)
		m.Masks = sparsity.MasksByLayer(reg, plan, masks)
		for k, mask := range m.Masks {
			if mask != nil {
				plan.SetMask(k, mask)
			}
		}
		if opt.Obs != nil {
			kept := 0
			for _, mask := range masks {
				for i := range mask {
					for j := range mask[i] {
						if mask[i][j] {
							kept++
						}
					}
				}
			}
			total := reg.GroupCount()
			opt.Obs.Counter("sparsity.pruned_groups", obs.Stable).Add(int64(total - kept))
			opt.Obs.Counter("sparsity.total_groups", obs.Stable).Add(int64(total))
			// The prune step is a serial phase transition between
			// training and fine-tuning: a natural telemetry boundary.
			opt.Obs.Boundary("prune", 1)
		}
		// Phase 3: fine-tune with pruned blocks frozen at zero —
		// standard prune-then-retrain, recovering the accuracy the
		// structured regularizer cost during sparsification.
		if ftEpochs > 0 {
			ft := sgd
			ft.Epochs = ftEpochs
			ft.Seed = opt.Seed + 1
			ft.ObsScope = "train.finetune"
			proj := reg.Projector(masks)
			proj()
			ftTrainer := &nn.Trainer{Net: net, Config: ft, AfterStep: proj}
			ftTrainer.Fit(ds.TrainX, ds.TrainY)
		}
	}
	m.Accuracy = net.Accuracy(ds.TestX, ds.TestY)
	return m, nil
}

// Simulate runs the model's plan on a CMP with the given core count
// and returns the report.
func (m *TrainedModel) Simulate() (cmp.Report, error) {
	return m.SimulateTimeline(nil)
}

// SimulateTimeline is Simulate with a cycle-accurate event timeline
// attached: when tl is non-nil, the CMP simulation records one section
// per layer (packet lifecycles, link busy intervals, per-core compute
// spans) into it. The timeline — like the report — is byte-identical
// at every host worker count.
func (m *TrainedModel) SimulateTimeline(tl *timeline.Sink) (cmp.Report, error) {
	sys, err := m.system(tl)
	if err != nil {
		return cmp.Report{}, err
	}
	return sys.RunPlan(m.Plan)
}

// SimulatePipeline runs the model's plan through the pipelined stage
// scheduler: layers grouped into opt.Depth stages pinned to disjoint
// core blocks, opt.Batches inferences in flight on one simulated
// clock. When tl is non-nil the run records one timeline section per
// (batch, layer), tagged with its stage so the Perfetto export grows a
// "pipeline stages" track whose gaps are the pipeline bubbles. At
// depth 1 with one batch the report, observations and timeline are
// bit-identical to SimulateTimeline.
func (m *TrainedModel) SimulatePipeline(opt cmp.PipelineOptions, tl *timeline.Sink) (cmp.PipelineReport, error) {
	sys, err := m.system(tl)
	if err != nil {
		return cmp.PipelineReport{}, err
	}
	return sys.RunPipeline(m.Plan, opt)
}

// system builds the CMP the model simulates on: the default chip for
// its core count at its datapath precision, recording into the
// model's obs registry and into tl.
func (m *TrainedModel) system(tl *timeline.Sink) (*cmp.System, error) {
	cfg := cmp.DefaultConfig(m.Plan.Cores)
	cfg.Obs = m.Obs
	cfg.Timeline = tl
	cfg.Core.Precision = m.Precision
	return cmp.New(cfg)
}

// TrafficRate returns the model's total synchronization traffic as a
// fraction of the dense (traditional) plan of the same spec — the
// paper's "NoC traffic rate" column.
func (m *TrainedModel) TrafficRate() float64 {
	dense := partition.NewPlan(m.Spec, m.Plan.Cores)
	db := dense.TotalTraffic()
	if db == 0 {
		return 0
	}
	return float64(m.Plan.TotalTraffic()) / float64(db)
}
