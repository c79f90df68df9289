package nn

import (
	"math/rand"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// allocNet builds a representative conv net (conv → relu → pool →
// flatten → fc) plus a small labelled batch.
func allocNet() (*Trainer, []*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork("alloc").Add(
		NewConv2D("c1", 1, 12, 12, 8, 3, 1, 1, 1),
		NewReLU("r1"),
		NewMaxPool2D("p1", 8, 12, 12, 2, 2),
		NewFlatten("f"),
		NewFullyConnected("fc", 8*6*6, 10),
	)
	net.Init(rng)
	tr := &Trainer{Net: net, Config: DefaultSGD()}
	inputs := make([]*tensor.Tensor, 4)
	labels := make([]int, len(inputs))
	for i := range inputs {
		in := tensor.New(1, 12, 12)
		in.RandN(rng, 1)
		inputs[i] = in
		labels[i] = i % 10
	}
	return tr, inputs, labels
}

// allocMLP is batchTestMLP as a trainer with a labelled batch of five,
// one whole four-row block and a ragged row.
func allocMLP() (*Trainer, []*tensor.Tensor, []int) {
	net, ins := batchTestMLP()
	labels := []int{0, 1, 2, 3, 4}
	return &Trainer{Net: net, Config: DefaultSGD()}, ins[:len(labels)], labels
}

// TestTrainStepZeroAlloc pins the scratch-arena property the PR 3
// benchmarks record: after warm-up, a serial steady-state training
// step (forward, loss, backward, SGD update) performs zero heap
// allocations — every layer owns its activation/gradient buffers and
// packed-GEMM scratch — on a conv net and on an MLP.
func TestTrainStepZeroAlloc(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	for name, build := range map[string]func() (*Trainer, []*tensor.Tensor, []int){"conv": allocNet, "mlp": allocMLP} {
		t.Run(name, func(t *testing.T) {
			tr, inputs, labels := build()
			for i := 0; i < 3; i++ {
				tr.Step(inputs, labels) // size lazily-allocated buffers
			}
			avg := testing.AllocsPerRun(20, func() {
				tr.Step(inputs, labels)
			})
			if avg != 0 {
				t.Fatalf("steady-state training step allocates %.1f objects/step, want 0", avg)
			}
		})
	}
}

// TestStepMatchesFit checks that Step's update arithmetic is the same
// batch update Fit performs: one epoch of Fit over a single batch
// (shuffle of a one-batch dataset is order-preserving only when the
// permutation is trivial, so compare against a Fit-free manual run).
func TestStepMatchesFit(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	trA, inputs, labels := allocNet()
	trB, _, _ := allocNet()

	lossA, _ := trA.Step(inputs, labels)

	// Replicate via runBatch directly with the identity order.
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	params := trB.Net.Params()
	startTraining(params)
	lossB, _ := trB.runBatch(idx, inputs, labels, params, trB.Config.LearningRate)

	if lossA != lossB {
		t.Fatalf("Step loss %v != runBatch loss %v", lossA, lossB)
	}
	pa, pb := trA.Net.Params(), trB.Net.Params()
	for i := range pa {
		for j, v := range pa[i].W.Data {
			if v != pb[i].W.Data[j] {
				t.Fatalf("param %s[%d] diverged: %v vs %v", pa[i].Name, j, v, pb[i].W.Data[j])
			}
		}
	}
}

// TestFitParallelAllocsPerExample bounds what a workers=2 Fit allocates
// per example once its set-up is done: the extra allocations of three
// epochs over one, per example of the two extra epochs. Every batch
// runs as K rows in buffers the first epoch sized, and a parallel call
// that starts helpers allocates nothing, so on the MLP and on a conv
// net nothing is left. The race detector drops pooled chunk jobs at
// random, so a race build bounds the MLP, whose few parallel calls per
// batch share the examples, at half an allocation per example and
// skips the conv net, which makes dozens of such calls per batch.
func TestFitParallelAllocsPerExample(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	mlp := func() (*Network, []*tensor.Tensor, []int) {
		net, ins := batchTestMLP()
		labels := make([]int, len(ins))
		for i := range labels {
			labels[i] = i % 7
		}
		return net, ins, labels
	}
	for _, tc := range []struct {
		name      string
		build     func() (*Network, []*tensor.Tensor, []int)
		raceBound float64 // the bound in a race build; < 0 skips it there
	}{
		{"mlp", mlp, 0.5},
		{"conv", stateNet, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := 0.0
			if raceEnabled {
				if tc.raceBound < 0 {
					t.Skip("the race detector drops pooled chunk jobs at random")
				}
				bound = tc.raceBound
			}
			net, ins, labels := tc.build()
			fit := func(epochs int) float64 {
				cfg := DefaultSGD()
				cfg.Epochs, cfg.BatchSize = epochs, 4
				tr := &Trainer{Net: net, Config: cfg}
				return testing.AllocsPerRun(5, func() { tr.Fit(ins, labels) })
			}
			one, three := fit(1), fit(3)
			per := (three - one) / float64(2*len(ins))
			t.Logf("workers=2 Fit: %.0f allocs at 1 epoch, %.0f at 3: %.2f per example", one, three, per)
			if per > bound {
				t.Fatalf("workers=2 Fit allocates %.2f objects per example, want <= %v", per, bound)
			}
		})
	}
}
