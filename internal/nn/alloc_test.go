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
	cfg := DefaultSGD()
	cfg.Workers = 1
	tr := &Trainer{Net: net, Config: cfg}
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

// TestTrainStepZeroAlloc pins the scratch-arena property the PR 3
// benchmarks record: after warm-up, a serial steady-state training
// step (forward, loss, backward, SGD update) performs zero heap
// allocations — every layer owns its activation/gradient buffers and
// packed-GEMM scratch.
func TestTrainStepZeroAlloc(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	tr, inputs, labels := allocNet()
	for i := 0; i < 3; i++ {
		tr.Step(inputs, labels) // size lazily-allocated buffers
	}
	avg := testing.AllocsPerRun(20, func() {
		tr.Step(inputs, labels)
	})
	if avg != 0 {
		t.Fatalf("steady-state training step allocates %.1f objects/step, want 0", avg)
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
	lossB, _ := trB.runBatch(idx, inputs, labels, params, nil, 1, trB.Config.LearningRate)

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
