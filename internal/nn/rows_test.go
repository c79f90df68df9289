package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"learn2scale/internal/obs"
	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// TestBatchRowsMatchesPerExample holds the K-row batch (batchRows) to
// K one-example passes through the public Forward, SoftmaxCrossEntropy
// and Backward, each on its own copy of a net: batchTestMLP, whose
// weights hold zero rows and whose inputs hold all-zero examples, and
// the LeNet-shaped stateNet with grouped conv. The examples run in a
// shuffled order in batches of 1, 5 and all, the batches of 5 ending on
// a ragged one, one after another, so every batch sees the weights the
// last step left. For each batch, the gradient evaluation alone must
// give the same loss, correct count and G, bit for bit; then the whole
// update must give the same loss, W and V, and leave G cleared on both.
func TestBatchRowsMatchesPerExample(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	mlp := func() (*Network, []*tensor.Tensor, []int) {
		net, ins := batchTestMLP()
		labels := make([]int, len(ins))
		for i := range labels {
			labels[i] = (3 * i) % 7
		}
		return net, ins, labels
	}
	for name, build := range map[string]func() (*Network, []*tensor.Tensor, []int){"mlp": mlp, "conv": stateNet} {
		t.Run(name, func(t *testing.T) {
			rowsNet, ins, labels := build()
			exNet, _, _ := build()
			cfg := DefaultSGD()
			rows := &Trainer{Net: rowsNet, Config: cfg}
			ex := &Trainer{Net: exNet, Config: cfg}
			pr, pe := rowsNet.Params(), exNet.Params()
			startTraining(pr)
			startTraining(pe)
			// perExample is batchRows as K one-example passes.
			perExample := func(batch []int) (float64, int) {
				loss, correct := 0.0, 0
				for _, idx := range batch {
					logits := exNet.Forward(ins[idx], true)
					grad := tensor.New(logits.Shape...)
					loss += SoftmaxCrossEntropy(logits, labels[idx], grad)
					if argmax(logits.Data) == labels[idx] {
						correct++
					}
					exNet.Backward(grad)
				}
				return loss, correct
			}
			sameBits := func(what string, a, b []float32) {
				t.Helper()
				for i := range a {
					if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
						t.Fatalf("%s[%d]: K rows %08x, per example %08x", what, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
					}
				}
			}
			order := rand.New(rand.NewSource(9)).Perm(len(ins))
			for _, size := range []int{1, 5, len(ins)} {
				for start := 0; start < len(order); start += size {
					batch := order[start:min(start+size, len(order))]

					lossR, okR := rows.batchRows(batch, ins, labels)
					lossE, okE := perExample(batch)
					if math.Float64bits(lossR) != math.Float64bits(lossE) || okR != okE {
						t.Fatalf("batch of %d at %d: K rows loss %v, %d correct; per example %v, %d", len(batch), start, lossR, okR, lossE, okE)
					}
					for i := range pr {
						sameBits(pr[i].Name+" G", pr[i].G.Data, pe[i].G.Data)
					}
					clearGrads(pr)
					clearGrads(pe)

					lossR, _ = rows.runBatch(batch, ins, labels, pr, cfg.LearningRate)
					lossE, _ = perExample(batch)
					ex.update(pe, len(batch), cfg.LearningRate)
					if math.Float64bits(lossR) != math.Float64bits(lossE) {
						t.Fatalf("update of %d at %d: K rows loss %v, per example %v", len(batch), start, lossR, lossE)
					}
					for i := range pr {
						sameBits(pr[i].Name+" W", pr[i].W.Data, pe[i].W.Data)
						sameBits(pr[i].Name+" V", pr[i].V.Data, pe[i].V.Data)
						for j, v := range pr[i].G.Data {
							if v != 0 || pe[i].G.Data[j] != 0 {
								t.Fatalf("%s G[%d] = %v, %v after the step, want 0", pr[i].Name, j, v, pe[i].G.Data[j])
							}
						}
					}
				}
			}
		})
	}
}

// TestAccuracyRowsMatchesPredict holds a net's Accuracy, which
// classifies groups of accuracyRows inputs as K rows, to Predict input
// by input: over three whole groups and a ragged one, with all-zero
// inputs among them, labels equal to Predict's classes read 1 exactly,
// and labels moved off them on every third input read exactly the
// share of the others; every layer's forward span counts one hit per
// input.
func TestAccuracyRowsMatchesPredict(t *testing.T) {
	net, _ := batchTestMLP()
	rng := rand.New(rand.NewSource(17))
	ins := make([]*tensor.Tensor, 3*accuracyRows+6)
	labels := make([]int, len(ins))
	for i := range ins {
		ins[i] = tensor.New(1, 24, 24)
		if i%9 != 4 {
			ins[i].RandN(rng, 1)
		}
		labels[i] = net.Predict(ins[i])
	}
	reg := obs.New()
	net.SetObs(reg)
	if got := net.Accuracy(ins, labels); got != 1 {
		t.Fatalf("Accuracy with Predict's labels = %v, want 1", got)
	}
	spans := 0
	for _, sp := range reg.SnapshotClass(obs.Stable).Spans {
		if strings.HasPrefix(sp.Path, "nn/fwd/") {
			spans++
			if sp.Count != int64(len(ins)) {
				t.Errorf("span %s counts %d hits, want %d", sp.Path, sp.Count, len(ins))
			}
		}
	}
	if spans != len(net.Layers) {
		t.Errorf("%d forward spans, want one per layer (%d)", spans, len(net.Layers))
	}
	want := 0
	for i := range labels {
		if i%3 == 0 {
			labels[i] = (labels[i] + 1) % 7
		} else {
			want++
		}
	}
	if got, w := net.Accuracy(ins, labels), float64(want)/float64(len(ins)); got != w {
		t.Fatalf("Accuracy = %v, want %v", got, w)
	}
}
