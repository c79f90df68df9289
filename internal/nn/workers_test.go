package nn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// workersNet builds a net whose ReLU and pooling layers are large
// enough to split over several parallel chunks (a 8×48×48 ReLU is two
// ReLU chunks, its 3×3 stride-2 max pool two channel chunks), with
// padded convolutions, an LRN and an average pool, plus 8 labelled
// inputs.
func workersNet() (*Network, []*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork("workers").Add(
		NewConv2D("conv1", 2, 48, 48, 8, 3, 1, 1, 1),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 8, 48, 48, 3, 2),
		NewConv2D("conv2", 8, 23, 23, 12, 3, 1, 1, 2),
		NewLRN("norm2", 12, 23, 23, 5, 0, 0, 0),
		NewReLU("relu2"),
		NewAvgPool2D("pool2", 12, 23, 23, 2, 2),
		NewFlatten("flat"),
		NewFullyConnected("ip1", 12*11*11, 5),
	)
	net.Init(rng)
	ins := make([]*tensor.Tensor, 8)
	labels := make([]int, len(ins))
	for i := range ins {
		ins[i] = tensor.New(2, 48, 48)
		ins[i].RandN(rng, 1)
		labels[i] = i % 5
	}
	return net, ins, labels
}

// TestTrainingRecordsAcrossWorkers trains the same conv net at 1, 2 and
// 7 workers, through Fit and Step, each batch as K rows split over the
// workers inside every layer, and requires every epoch record, every
// step's loss and every weight to be bit-identical.
func TestTrainingRecordsAcrossWorkers(t *testing.T) {
	checkTrainingAcrossWorkers(t, workersNet, 4)
}

// TestFitMLPAcrossWorkers is the same check on a net of FC layers only,
// whose weight gradients all come from the batch GEMM, with a ragged
// last batch and inputs that are all zero.
func TestFitMLPAcrossWorkers(t *testing.T) {
	checkTrainingAcrossWorkers(t, func() (*Network, []*tensor.Tensor, []int) {
		net, ins := batchTestMLP()
		labels := make([]int, len(ins))
		for i := range labels {
			labels[i] = i % 7
		}
		return net, ins, labels
	}, 5)
}

// checkTrainingAcrossWorkers trains the net build returns at 1, 2 and 7
// workers: two epochs of Fit at the given batch size, then three
// Steps. Every epoch record, step loss, weight and momentum must be
// bit-identical to the one-worker run.
func checkTrainingAcrossWorkers(t *testing.T, build func() (*Network, []*tensor.Tensor, []int), batch int) {
	t.Helper()
	type record struct {
		epochs []EpochStats
		losses []float64
		w      []uint32
	}
	var runs []record
	for _, workers := range []int{1, 2, 7} {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		net, ins, labels := build()
		cfg := DefaultSGD()
		cfg.Epochs, cfg.BatchSize = 2, batch
		var rec record
		tr := &Trainer{Net: net, Config: cfg, AfterEpoch: func(s EpochStats) bool {
			rec.epochs = append(rec.epochs, s)
			return true
		}}
		tr.Fit(ins, labels)
		for i := 0; i < 3; i++ {
			loss, _ := tr.Step(ins[2*i:2*i+4], labels[2*i:2*i+4])
			rec.losses = append(rec.losses, loss)
		}
		for _, p := range net.Params() {
			for _, v := range p.W.Data {
				rec.w = append(rec.w, math.Float32bits(v))
			}
			for _, v := range p.V.Data {
				rec.w = append(rec.w, math.Float32bits(v))
			}
		}
		runs = append(runs, rec)
	}
	for i, r := range runs[1:] {
		workers := []int{2, 7}[i]
		for e := range r.epochs {
			if r.epochs[e] != runs[0].epochs[e] {
				t.Fatalf("workers=%d epoch %d: %+v, workers=1 %+v", workers, e, r.epochs[e], runs[0].epochs[e])
			}
		}
		for s := range r.losses {
			if math.Float64bits(r.losses[s]) != math.Float64bits(runs[0].losses[s]) {
				t.Fatalf("workers=%d step %d loss %v, workers=1 %v", workers, s, r.losses[s], runs[0].losses[s])
			}
		}
		for j := range r.w {
			if r.w[j] != runs[0].w[j] {
				t.Fatalf("workers=%d: weight or momentum %d is %08x, workers=1 %08x", workers, j, r.w[j], runs[0].w[j])
			}
		}
	}
}

// TestLRNZeroAlloc: after a warm-up pass, LRN's forward and backward
// passes allocate nothing.
func TestLRNZeroAlloc(t *testing.T) {
	l := NewLRN("norm", 6, 5, 5, 5, 0, 0, 0)
	in := tensor.New(6, 5, 5)
	in.RandN(rand.New(rand.NewSource(3)), 1)
	g := tensor.New(6, 5, 5)
	fill(g, 0.5)
	var b backRow
	l.Forward(in, true)
	b.layer(l, g)
	if n := testing.AllocsPerRun(20, func() { l.Forward(in, true) }); n != 0 {
		t.Errorf("steady-state LRN Forward allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { b.layer(l, g) }); n != 0 {
		t.Errorf("steady-state LRN backward allocates %.1f objects, want 0", n)
	}
}
