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
// the per-example batch routine (batchSerial), each called directly on
// its own copy of batchTestMLP, whose weights hold zero rows and whose
// inputs hold all-zero examples. The 16 examples run in a shuffled
// order in batches of 1, 5 and 16, the batches of 5 ending on a ragged
// one, one after another, so every batch sees the weights the last
// step left. For each batch, the gradient evaluation alone (open,
// evaluate, flush) must give the same loss, correct count and G, bit
// for bit; then the whole update must give the same loss, W and V, and
// leave G cleared on both.
func TestBatchRowsMatchesPerExample(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	rowsNet, ins := batchTestMLP()
	serialNet, _ := batchTestMLP()
	labels := make([]int, len(ins))
	for i := range labels {
		labels[i] = (3 * i) % 7
	}
	cfg := DefaultSGD()
	rows := &Trainer{Net: rowsNet, Config: cfg}
	serial := &Trainer{Net: serialNet, Config: cfg}
	pr, ps := rowsNet.Params(), serialNet.Params()
	startTraining(pr)
	startTraining(ps)

	sameBits := func(what string, a, b []float32) {
		t.Helper()
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s[%d]: K rows %08x, per example %08x", what, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
			}
		}
	}
	order := rand.New(rand.NewSource(9)).Perm(len(ins))
	for _, size := range []int{1, 5, 16} {
		for start := 0; start < len(order); start += size {
			batch := order[start:min(start+size, len(order))]

			rowsNet.beginBatch(len(batch))
			lossR, okR := rows.batchRows(batch, ins, labels)
			rowsNet.flushBatch()
			serialNet.beginBatch(len(batch))
			lossS, okS := serial.batchSerial(batch, ins, labels)
			serialNet.flushBatch()
			if math.Float64bits(lossR) != math.Float64bits(lossS) || okR != okS {
				t.Fatalf("batch of %d at %d: K rows loss %v, %d correct; per example %v, %d", len(batch), start, lossR, okR, lossS, okS)
			}
			for i := range pr {
				sameBits(pr[i].Name+" G", pr[i].G.Data, ps[i].G.Data)
			}
			clearGrads(pr)
			clearGrads(ps)

			lossR, _ = rows.runBatch(batch, ins, labels, pr, cfg.LearningRate, rows.batchRows)
			lossS, _ = serial.runBatch(batch, ins, labels, ps, cfg.LearningRate, serial.batchSerial)
			if math.Float64bits(lossR) != math.Float64bits(lossS) {
				t.Fatalf("update of %d at %d: K rows loss %v, per example %v", len(batch), start, lossR, lossS)
			}
			for i := range pr {
				sameBits(pr[i].Name+" W", pr[i].W.Data, ps[i].W.Data)
				sameBits(pr[i].Name+" V", pr[i].V.Data, ps[i].V.Data)
				sameBits(pr[i].Name+" G", pr[i].G.Data, ps[i].G.Data)
				for j, v := range pr[i].G.Data {
					if v != 0 {
						t.Fatalf("%s G[%d] = %v after the step, want 0", pr[i].Name, j, v)
					}
				}
			}
		}
	}
}

// TestAccuracyRowsMatchesPredict holds a row net's Accuracy, which
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
