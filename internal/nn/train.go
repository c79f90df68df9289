package nn

import (
	"fmt"
	"io"
	"math/rand"

	"learn2scale/internal/obs"
	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// Regularizer adds a structured penalty to the training objective —
// the λ_g·ΣR_g(W^l) term of the paper's Eq. (1). internal/sparsity
// provides the group-Lasso implementations (SS and SS_Mask).
type Regularizer interface {
	// Penalty returns the current regularization loss (for logging).
	Penalty() float64
	// AddGrad accumulates the regularization (sub)gradient into the
	// parameter gradients it manages.
	AddGrad()
}

// SGDConfig configures the trainer.
type SGDConfig struct {
	LearningRate float64
	Momentum     float64
	WeightDecay  float64 // the generic λ·R(W) term of Eq. (1), as L2
	BatchSize    int
	Epochs       int
	// LRDecay multiplies the learning rate after every epoch (1 = none).
	LRDecay float64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
	// Seed drives example shuffling.
	Seed int64
	// Workers bounds the host worker threads used to evaluate the
	// per-example gradients of each mini-batch (see internal/parallel).
	// <= 0 uses parallel.Workers() (the L2S_WORKERS environment
	// variable, else GOMAXPROCS). Results are bit-identical at every
	// worker count: per-example losses and gradients fold in example
	// order regardless of scheduling.
	Workers int
	// Obs, when non-nil, receives per-epoch metrics under ObsScope
	// (default "train"): stable gauges <scope>.epoch.NN.{loss,acc,
	// penalty,lr} — losses are deterministic at every worker count —
	// plus a volatile <scope>/epoch wall-time span.
	Obs      *obs.Registry
	ObsScope string
}

// DefaultSGD returns a reasonable configuration for the small networks
// in this repository.
func DefaultSGD() SGDConfig {
	return SGDConfig{
		LearningRate: 0.05,
		Momentum:     0.9,
		WeightDecay:  1e-4,
		BatchSize:    16,
		Epochs:       10,
		LRDecay:      0.95,
		Seed:         1,
	}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Loss      float64 // mean data loss per example
	Penalty   float64 // regularizer penalty at epoch end
	TrainAcc  float64
	LearnRate float64
}

// Trainer runs SGD with momentum over a labelled dataset.
type Trainer struct {
	Net    *Network
	Config SGDConfig
	// Reg, when non-nil, contributes structured-sparsity gradients
	// each batch and is reported in EpochStats.
	Reg Regularizer
	// AfterEpoch, when non-nil, is invoked after every epoch; returning
	// false stops training early.
	AfterEpoch func(EpochStats) bool
	// AfterStep, when non-nil, runs after every parameter update.
	// Used to project weights back onto a constraint set (e.g. keeping
	// pruned blocks at zero while fine-tuning).
	AfterStep func()

	// Step scratch, lazily sized so steady-state Step calls allocate
	// nothing.
	stepIdx    []int
	stepParams []*Param
}

// Fit trains the network on (inputs, labels) and returns the stats of
// the final epoch.
func (t *Trainer) Fit(inputs []*tensor.Tensor, labels []int) EpochStats {
	if len(inputs) != len(labels) {
		panic("nn: Fit input/label count mismatch")
	}
	if len(inputs) == 0 {
		panic("nn: Fit on empty dataset")
	}
	cfg := t.Config
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	params := t.Net.Params()

	// Replica pool for data-parallel gradient evaluation. Pool size
	// matches MapReduce's fold window so acquisition in mapf can never
	// deadlock; replicas share W/V with t.Net and own private G.
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	var replicas chan *Network
	if workers > 1 {
		if first, ok := t.Net.ShareClone(); ok {
			replicas = make(chan *Network, workers+2)
			replicas <- first
			for i := 1; i < cap(replicas); i++ {
				r, _ := t.Net.ShareClone()
				replicas <- r
			}
		}
	}

	scope := cfg.ObsScope
	if scope == "" {
		scope = "train"
	}
	epochSpan := cfg.Obs.Span(scope + "/epoch") // nil-safe: inert without Obs

	lr := cfg.LearningRate
	var last EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		etm := epochSpan.Start()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss := 0.0
		correct := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			loss, ok := t.runBatch(batch, inputs, labels, params, replicas, workers, lr)
			totalLoss += loss
			correct += ok
		}
		last = EpochStats{
			Epoch:     epoch,
			Loss:      totalLoss / float64(len(order)),
			TrainAcc:  float64(correct) / float64(len(order)),
			LearnRate: lr,
		}
		if t.Reg != nil {
			last.Penalty = t.Reg.Penalty()
		}
		etm.Stop()
		if cfg.Obs != nil {
			pfx := fmt.Sprintf("%s.epoch.%02d.", scope, epoch)
			cfg.Obs.Gauge(pfx+"loss", obs.Stable).Set(last.Loss)
			cfg.Obs.Gauge(pfx+"acc", obs.Stable).Set(last.TrainAcc)
			cfg.Obs.Gauge(pfx+"penalty", obs.Stable).Set(last.Penalty)
			cfg.Obs.Gauge(pfx+"lr", obs.Stable).Set(lr)
			cfg.Obs.Counter(scope+".epochs", obs.Stable).Add(1)
			// Epoch ends are the training loop's deterministic window
			// boundary: announced here, after the serial epoch gauges,
			// so a live telemetry window holds exactly one epoch.
			cfg.Obs.Boundary("epoch", 1)
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d: loss=%.4f acc=%.3f penalty=%.4f lr=%.4g\n",
				t.Net.Name, epoch, last.Loss, last.TrainAcc, last.Penalty, lr)
		}
		if t.AfterEpoch != nil && !t.AfterEpoch(last) {
			break
		}
		lr *= cfg.LRDecay
	}
	return last
}

// runBatch performs one mini-batch SGD update: zero gradients,
// accumulate per-example gradients (in parallel when replicas is
// non-nil), average, add decay and regularizer terms, and apply the
// momentum step. Returns the batch's total data loss and correct
// count. The serial path allocates nothing in steady state.
func (t *Trainer) runBatch(batch []int, inputs []*tensor.Tensor, labels []int, params []*Param, replicas chan *Network, workers int, lr float64) (float64, int) {
	for _, p := range params {
		if p.frozen() {
			panic(fmt.Sprintf("nn: %s: SGD step on a frozen network (Network.Freeze released its gradient and momentum)", p.Name))
		}
		p.G.Zero()
	}
	var totalLoss float64
	var correct int
	if replicas != nil {
		totalLoss, correct = t.batchParallel(batch, inputs, labels, params, replicas, workers)
	} else {
		// Accumulate the batch loss locally and add it once, matching
		// batchParallel's fold association so the epoch loss is
		// bit-identical at every worker count.
		batchLoss := 0.0
		for _, idx := range batch {
			logits := t.Net.Forward(inputs[idx], true)
			grad := t.Net.lossGradBuf(logits.Shape)
			batchLoss += SoftmaxCrossEntropy(logits, labels[idx], grad)
			if argmax(logits.Data) == labels[idx] {
				correct++
			}
			t.Net.Backward(grad)
		}
		totalLoss = batchLoss
	}
	// Mean gradient over the batch.
	inv := float32(1.0 / float64(len(batch)))
	for _, p := range params {
		p.G.Scale(inv)
	}
	if t.Config.WeightDecay > 0 {
		for _, p := range params {
			if p.Decay {
				p.G.AXPY(float32(t.Config.WeightDecay), p.W)
			}
		}
	}
	if t.Reg != nil {
		t.Reg.AddGrad()
	}
	// Momentum update: v = μv − lr·g; w += v.
	mu := float32(t.Config.Momentum)
	step := float32(-lr)
	for _, p := range params {
		for i := range p.V.Data {
			p.V.Data[i] = mu*p.V.Data[i] + step*p.G.Data[i]
			p.W.Data[i] += p.V.Data[i]
		}
	}
	if t.AfterStep != nil {
		t.AfterStep()
	}
	return totalLoss, correct
}

// Step applies one mini-batch update over the whole provided slice
// (serially, at the configured learning rate, with no shuffling or
// epoch bookkeeping) and returns the total data loss and correct
// count. After a warm-up call, steady-state Steps perform zero heap
// allocations — the property the benchmark suite pins.
func (t *Trainer) Step(inputs []*tensor.Tensor, labels []int) (float64, int) {
	if len(inputs) != len(labels) {
		panic("nn: Step input/label count mismatch")
	}
	if len(inputs) == 0 {
		panic("nn: Step on empty batch")
	}
	if t.stepParams == nil {
		t.stepParams = t.Net.Params()
	}
	if len(t.stepIdx) != len(inputs) {
		t.stepIdx = make([]int, len(inputs))
		for i := range t.stepIdx {
			t.stepIdx[i] = i
		}
	}
	return t.runBatch(t.stepIdx, inputs, labels, t.stepParams, nil, 1, t.Config.LearningRate)
}

// exampleResult carries one example's gradients (inside the replica's
// private G buffers) back to the fold.
type exampleResult struct {
	rep     *Network
	loss    float64
	correct int
}

type batchTotals struct {
	loss    float64
	correct int
}

// batchParallel evaluates the batch's per-example gradients on replica
// networks and folds them into params' G in example order, making the
// result bit-identical to the serial loop at every worker count: each
// gradient element receives exactly one addition per example, in the
// same sequence the serial path performs it.
func (t *Trainer) batchParallel(batch []int, inputs []*tensor.Tensor, labels []int, params []*Param, replicas chan *Network, workers int) (float64, int) {
	totals := parallel.MapReduce(len(batch), 1, batchTotals{},
		func(lo, hi int) exampleResult {
			rep := <-replicas
			for _, p := range rep.Params() {
				p.G.Zero()
			}
			r := exampleResult{rep: rep}
			for _, idx := range batch[lo:hi] {
				logits := rep.Forward(inputs[idx], true)
				grad := rep.lossGradBuf(logits.Shape)
				r.loss += SoftmaxCrossEntropy(logits, labels[idx], grad)
				if argmax(logits.Data) == labels[idx] {
					r.correct++
				}
				rep.Backward(grad)
			}
			return r
		},
		func(acc batchTotals, r exampleResult) batchTotals {
			rp := r.rep.Params()
			for pi, p := range params {
				dst, src := p.G.Data, rp[pi].G.Data
				for i, v := range src {
					if v != 0 {
						dst[i] += v
					}
				}
			}
			replicas <- r.rep
			acc.loss += r.loss
			acc.correct += r.correct
			return acc
		},
		parallel.WithWorkers(workers))
	return totals.loss, totals.correct
}
