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

// Trainer runs SGD with momentum over a labelled dataset. The momentum
// lives on each Param, not in the Trainer, so Trainers run one after
// another on one net (pre-train, sparsify, fine-tune) carry it over.
//
// A mini-batch of K examples runs as K rows (batchRows): one forward
// and one backward per layer, each split over the host workers
// (parallel.Workers: the L2S_WORKERS environment variable, else
// GOMAXPROCS) inside the layer. Every loss, gradient and weight has
// the same bits at every worker count, and the same as K one-example
// Forward and Backward calls give.
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
	// rowIns holds the inputs of the batch batchRows runs.
	rowIns []*tensor.Tensor
	// sgd is the parallel update pass, bound to the current param list.
	sgd sgdPass
}

// Fit trains the network on (inputs, labels) and returns the stats of
// the final epoch, each batch as K rows (see Trainer). It allocates
// any gradient and momentum the net does not hold yet; momentum left
// by an earlier Trainer carries over, and a gradient left by a direct
// Backward is cleared.
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
	startTraining(params)
	clearGrads(params)

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
			loss, ok := t.runBatch(batch, inputs, labels, params, lr)
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

// runBatch performs one mini-batch SGD update: evaluate the batch's
// gradients as K rows, average, add decay and regularizer terms, and
// apply the momentum step, which leaves every G zero for the next
// batch. Returns the batch's total data loss and correct count. Every
// param's G and V must be allocated (startTraining), and G zero.
func (t *Trainer) runBatch(batch []int, inputs []*tensor.Tensor, labels []int, params []*Param, lr float64) (float64, int) {
	totalLoss, correct := t.batchRows(batch, inputs, labels)
	t.update(params, len(batch), lr)
	return totalLoss, correct
}

// update turns the summed gradients of a batch of k examples into one
// SGD-with-momentum step.
func (t *Trainer) update(params []*Param, k int, lr float64) {
	t.sgd.bind(params)
	t.sgd.scale = float32(1.0 / float64(k))
	t.sgd.decay, t.sgd.decayOn = float32(t.Config.WeightDecay), t.Config.WeightDecay > 0
	t.sgd.run(t.sgd.fnGrad)
	if t.Reg != nil {
		t.Reg.AddGrad()
	}
	t.sgd.mu = float32(t.Config.Momentum)
	t.sgd.step = float32(-lr)
	t.sgd.run(t.sgd.fnStep)
	if t.AfterStep != nil {
		t.AfterStep()
	}
}

// batchRows evaluates the batch as K rows: one forward per layer over
// the gathered inputs, on FC weights packed for the batch, then each
// row's loss, gradient and argmax in example order, then one backward
// per layer, which adds the K examples' gradients into G. The batch
// loss adds up in example order from zero.
func (t *Trainer) batchRows(batch []int, inputs []*tensor.Tensor, labels []int) (float64, int) {
	n := t.Net
	t.rowIns = t.rowIns[:0]
	for _, idx := range batch {
		t.rowIns = append(t.rowIns, inputs[idx])
	}
	k := len(batch)
	n.packTrainableFC(true)
	logits := n.forwardRows(gather(&n.rows, t.rowIns), true, int64(k))
	c := len(logits.Data) / k
	setRows(&n.lossRows, k, logits.Shape[1:])
	lv, gv := &n.rowView[0], &n.rowView[1]
	lv.Shape, gv.Shape = logits.Shape[1:], logits.Shape[1:]
	batchLoss, correct := 0.0, 0
	for e, idx := range batch {
		lv.Data, gv.Data = logits.Data[e*c:(e+1)*c], n.lossRows.Data[e*c:(e+1)*c]
		batchLoss += SoftmaxCrossEntropy(lv, labels[idx], gv)
		if argmax(lv.Data) == labels[idx] {
			correct++
		}
	}
	n.backwardRows(&n.lossRows)
	n.packTrainableFC(false)
	return batchLoss, correct
}

// sgdGrain is the element count of one parallel chunk of an SGD pass.
const sgdGrain = 16384

// sgdPass runs the SGD update over every element of a param list, as
// one index space split over workers in chunks of sgdGrain, through
// bodies built once per list. Each element's arithmetic is the serial
// update's, with every product rounded before its add (no fused
// multiply-add), so the split changes no bit.
type sgdPass struct {
	params []*Param
	starts []int // starts[i] is params[i]'s first index; the last entry is the total

	scale, decay, mu, step float32
	decayOn                bool
	fnGrad, fnStep         func(lo, hi int)
}

// bind points the pass at params, rebuilding its index table when the
// list changes.
func (s *sgdPass) bind(params []*Param) {
	if len(s.params) == len(params) && (len(params) == 0 || &s.params[0] == &params[0]) {
		return
	}
	s.params = params
	s.starts = make([]int, len(params)+1)
	for i, p := range params {
		s.starts[i+1] = s.starts[i] + len(p.W.Data)
	}
	s.fnGrad, s.fnStep = s.gradRange, s.stepRange
}

// run splits one pass over the whole index space.
func (s *sgdPass) run(body func(lo, hi int)) {
	parallel.ForChunks(s.starts[len(s.params)], sgdGrain, body)
}

// span returns params[i]'s part of [lo, hi) as a range of its own
// elements, and whether it is empty.
func (s *sgdPass) span(lo, hi, i int) (a, b int, empty bool) {
	a, b = max(lo, s.starts[i])-s.starts[i], min(hi, s.starts[i+1])-s.starts[i]
	return a, b, a >= b
}

// gradRange turns the summed gradient of elements [lo, hi) into the
// step's gradient: the batch mean, plus the weight decay λ·W on a
// decaying param.
func (s *sgdPass) gradRange(lo, hi int) {
	for i, p := range s.params {
		a, b, empty := s.span(lo, hi, i)
		if empty {
			continue
		}
		g := p.G.Data[a:b]
		if !p.Decay || !s.decayOn {
			for j := range g {
				g[j] *= s.scale
			}
			continue
		}
		w := p.W.Data[a:b]
		for j := range g {
			g[j] = float32(g[j]*s.scale) + float32(s.decay*w[j])
		}
	}
}

// stepRange applies the momentum update to elements [lo, hi):
// v = μv − lr·g; w += v. It then clears their g, still in cache, so
// the next batch starts from zero with no sweep of its own.
func (s *sgdPass) stepRange(lo, hi int) {
	for i, p := range s.params {
		a, b, empty := s.span(lo, hi, i)
		if empty {
			continue
		}
		g, v, w := p.G.Data[a:b], p.V.Data[a:b], p.W.Data[a:b]
		for j := range v {
			v[j] = float32(s.mu*v[j]) + float32(s.step*g[j])
			w[j] += v[j]
		}
		clear(g)
	}
}

// Step applies one mini-batch update over the whole provided slice, as
// K rows (at the configured learning rate, with no shuffling or epoch
// bookkeeping) and returns the total data loss and correct count. The
// first call allocates the net's gradients and momentum; each call
// clears any gradient a direct Backward left.
// After a warm-up call, steady-state Steps perform zero heap
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
	startTraining(t.stepParams)
	clearGrads(t.stepParams)
	if len(t.stepIdx) != len(inputs) {
		t.stepIdx = make([]int, len(inputs))
		for i := range t.stepIdx {
			t.stepIdx[i] = i
		}
	}
	return t.runBatch(t.stepIdx, inputs, labels, t.stepParams, t.Config.LearningRate)
}

// startTraining allocates every param's gradient and momentum, so
// runBatch only ever sees allocated buffers. On a frozen net it
// panics, naming the first param.
func startTraining(params []*Param) {
	for _, p := range params {
		p.Grad()
		if p.V == nil {
			p.V = tensor.New(p.W.Shape...)
		}
	}
}

// clearGrads zeroes every param's G, so the first batch does not add a
// gradient a direct Backward left; each SGD step clears G after it.
func clearGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}
