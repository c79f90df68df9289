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
	// Workers bounds the weight-sharing replicas that evaluate the
	// per-example gradients of a mini-batch concurrently, on a net
	// with conv, pooling, LRN or Dropout layers (see Trainer). <= 0
	// uses parallel.Workers() (the L2S_WORKERS environment variable,
	// else GOMAXPROCS). A net built only from row layers (FC, ReLU,
	// Flatten) runs no replicas and ignores it: its batch is one K-row
	// pass, split inside each layer over the process-wide pool.
	// Results are bit-identical at every worker count: per-example
	// losses and gradients fold in example order regardless of
	// scheduling.
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

// Trainer runs SGD with momentum over a labelled dataset. The momentum
// lives on each Param, not in the Trainer, so Trainers run one after
// another on one net (pre-train, sparsify, fine-tune) carry it over.
//
// How a mini-batch's gradients are evaluated depends on the layers. A
// net built only from row layers (FullyConnected, ReLU, Flatten), such
// as the MLP, runs the batch as K rows: one forward and one backward
// per layer, each split over workers inside the layer (batchRows).
// Any other net runs example by example (batchSerial), concurrently on
// weight-sharing replicas when Workers allows (batchParallel). Every
// path gives every loss, gradient and weight the same bits.
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
	stepGrads  gradsFunc
	// rowIns holds the inputs of the batch batchRows runs.
	rowIns []*tensor.Tensor
	// sgd is the parallel update pass, bound to the current param list.
	sgd sgdPass
}

// Fit trains the network on (inputs, labels) and returns the stats of
// the final epoch. It allocates any gradient and momentum the net does
// not hold yet; momentum left by an earlier Trainer carries over, and a
// gradient left by a direct Backward is cleared. A row net trains each
// batch as K rows and builds no replicas; any other net trains on a
// replica pool of Workers (see Trainer).
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
	grads := t.batchGrads(params, cfg.Workers)

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
			loss, ok := t.runBatch(batch, inputs, labels, params, lr, grads)
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

// gradsFunc evaluates one mini-batch: it adds the examples' gradients
// into G and the open FC batch, and returns the batch's total data loss
// and correct count.
type gradsFunc func(batch []int, inputs []*tensor.Tensor, labels []int) (float64, int)

// batchGrads picks how Fit evaluates its batches: as K rows on a row
// net, else on a replica pool when workers (<= 0: parallel.Workers())
// exceeds one and every layer replicates, else example by example.
// The pool holds MapReduce's fold window of replicas, so acquisition
// in mapf can never deadlock; replicas share W with t.Net, and conv
// replicas own a private G.
func (t *Trainer) batchGrads(params []*Param, workers int) gradsFunc {
	if t.Net.rowNet() {
		return t.batchRows
	}
	if workers <= 0 {
		workers = parallel.Workers()
	}
	if workers > 1 {
		if first, ok := t.Net.ShareClone(); ok {
			replicas := make(chan *replica, workers+2)
			replicas <- newReplica(first)
			for i := 1; i < cap(replicas); i++ {
				r, _ := t.Net.ShareClone()
				replicas <- newReplica(r)
			}
			return func(batch []int, inputs []*tensor.Tensor, labels []int) (float64, int) {
				return t.batchParallel(batch, inputs, labels, params, replicas, workers)
			}
		}
	}
	return t.batchSerial
}

// runBatch performs one mini-batch SGD update: open the batch in every
// FC layer, evaluate the examples' gradients (grads), add each FC
// layer's batch GEMM, average, add decay and regularizer terms, and
// apply the momentum step, which leaves every G zero for the next
// batch. Returns the batch's total data loss and correct count. Every
// param's G and V must be allocated (startTraining), and G zero.
func (t *Trainer) runBatch(batch []int, inputs []*tensor.Tensor, labels []int, params []*Param, lr float64, grads gradsFunc) (float64, int) {
	t.Net.beginBatch(len(batch))
	totalLoss, correct := grads(batch, inputs, labels)
	t.Net.flushBatch()
	t.sgd.bind(params)
	t.sgd.scale = float32(1.0 / float64(len(batch)))
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
	return totalLoss, correct
}

// batchSerial evaluates the batch example by example on the net. It
// accumulates the batch loss locally and returns it to be added once,
// matching batchParallel's fold association, so the epoch loss is
// bit-identical on every path.
func (t *Trainer) batchSerial(batch []int, inputs []*tensor.Tensor, labels []int) (float64, int) {
	batchLoss, correct := 0.0, 0
	for e, idx := range batch {
		logits := t.Net.Forward(inputs[idx], true)
		grad := t.Net.lossGradBuf(logits.Shape)
		batchLoss += SoftmaxCrossEntropy(logits, labels[idx], grad)
		if argmax(logits.Data) == labels[idx] {
			correct++
		}
		t.Net.backward(grad, e)
	}
	return batchLoss, correct
}

// batchRows evaluates the batch on a row net as K rows: one forward
// per layer over the gathered inputs, then each row's loss, gradient
// and argmax in example order, then one backward per layer, in which
// each FC layer records all K rows of its batch at once. Per row, every
// operation is batchSerial's, so the two give the same bits.
func (t *Trainer) batchRows(batch []int, inputs []*tensor.Tensor, labels []int) (float64, int) {
	n := t.Net
	t.rowIns = t.rowIns[:0]
	for _, idx := range batch {
		t.rowIns = append(t.rowIns, inputs[idx])
	}
	logits := n.forwardRows(t.rowIns, true)
	k := len(batch)
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

// Step applies one mini-batch update over the whole provided slice
// (with no replicas, at the configured learning rate, with no
// shuffling or epoch bookkeeping) and returns the total data loss and
// correct count. A row net runs the batch as K rows, any other net
// example by example. The first call allocates the net's gradients
// and momentum; each call clears any gradient a direct Backward left.
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
		t.stepGrads = t.batchGrads(t.stepParams, 1)
	}
	startTraining(t.stepParams)
	clearGrads(t.stepParams)
	if len(t.stepIdx) != len(inputs) {
		t.stepIdx = make([]int, len(inputs))
		for i := range t.stepIdx {
			t.stepIdx[i] = i
		}
	}
	return t.runBatch(t.stepIdx, inputs, labels, t.stepParams, t.Config.LearningRate, t.stepGrads)
}

// startTraining allocates every param's gradient and momentum, so
// runBatch and the replica fold only ever see allocated buffers. Fit
// calls it before cloning its replica pool. On a frozen net it panics,
// naming the first param.
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

// replica is a ShareClone of the trained net in Fit's pool, with its
// param list, built once with it.
type replica struct {
	net    *Network
	params []*Param
}

func newReplica(net *Network) *replica { return &replica{net: net, params: net.Params()} }

// exampleResult carries one example's gradients (inside the replica's
// private G buffers) back to the fold.
type exampleResult struct {
	rep     *replica
	loss    float64
	correct int
}

type batchTotals struct {
	loss    float64
	correct int
}

// batchParallel evaluates the batch's per-example gradients on replica
// networks. FC layers record each example in their shared batch rows,
// at the example's position in the batch. Conv gradients are each
// example's partial sums in the replica's private G, folded into
// params' G in example order, making the result bit-identical to the
// serial loop at every worker count: each gradient element receives
// exactly one addition per example, in the same sequence the serial
// path performs it. Params whose replicas hold no G (FC params) are not
// folded.
func (t *Trainer) batchParallel(batch []int, inputs []*tensor.Tensor, labels []int, params []*Param, replicas chan *replica, workers int) (float64, int) {
	totals := parallel.MapReduce(len(batch), 1, batchTotals{},
		func(lo, hi int) exampleResult {
			rep := <-replicas
			for _, p := range rep.params {
				if p.G != nil {
					p.G.Zero()
				}
			}
			r := exampleResult{rep: rep}
			net := rep.net
			for j, idx := range batch[lo:hi] {
				logits := net.Forward(inputs[idx], true)
				grad := net.lossGradBuf(logits.Shape)
				r.loss += SoftmaxCrossEntropy(logits, labels[idx], grad)
				if argmax(logits.Data) == labels[idx] {
					r.correct++
				}
				net.backward(grad, lo+j)
			}
			return r
		},
		func(acc batchTotals, r exampleResult) batchTotals {
			rp := r.rep.params
			for pi, p := range params {
				if rp[pi].G == nil {
					continue
				}
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
