package nn

import (
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/tensor"
)

// stateNet builds a small LeNet-shaped net (two conv/pool blocks and
// two FC layers) from a fixed seed, plus a labelled set of 12 inputs.
func stateNet() (*Network, []*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork("state-lenet").Add(
		NewConv2D("conv1", 1, 8, 8, 4, 3, 1, 1, 1),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 4, 8, 8, 2, 2),
		NewConv2D("conv2", 4, 4, 4, 6, 3, 1, 1, 2),
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 6, 4, 4, 2, 2),
		NewFlatten("flat"),
		NewFullyConnected("ip1", 6*2*2, 10),
		NewReLU("relu3"),
		NewFullyConnected("ip2", 10, 3),
	)
	net.Init(rng)
	ins := make([]*tensor.Tensor, 12)
	labels := make([]int, len(ins))
	for i := range ins {
		ins[i] = tensor.New(1, 8, 8)
		ins[i].RandN(rng, 1)
		labels[i] = i % 3
	}
	return net, ins, labels
}

// trainingState reports, by name, whether each gradient, momentum and
// backward-only buffer of the net is allocated.
func trainingState(n *Network) map[string]bool {
	st := map[string]bool{}
	for _, p := range n.Params() {
		st[p.Name+".G"] = p.G != nil
		st[p.Name+".V"] = p.V != nil
	}
	for _, l := range n.Layers {
		pfx := l.Name() + "."
		switch l := l.(type) {
		case *Conv2D:
			st[pfx+"gradIn"] = l.gradIn != nil
			st[pfx+"goPackedA"] = l.goPackedA != nil
			st[pfx+"colTPacked"] = l.colTPacked != nil
			st[pfx+"wPackedAT"] = l.wPackedAT != nil
			st[pfx+"goPackedB"] = l.goPackedB != nil
			st[pfx+"gradW"] = l.gradW != nil
			st[pfx+"gradCol"] = l.gradCol != nil
		case *MaxPool2D:
			st[pfx+"arg"] = l.arg != nil
			st[pfx+"gradIn"] = l.gradIn != nil
		case *FullyConnected:
			st[pfx+"gradIn"] = l.gradIn != nil
			st[pfx+"batch"] = l.batch.x != nil
		}
	}
	return st
}

// TestInferenceHoldsNoTrainingState: a net that only runs inference
// holds no gradient, momentum or backward scratch; one Trainer.Step
// allocates all of it, except the input-gradient buffers of the first
// layer, whose dIn no one reads.
func TestInferenceHoldsNoTrainingState(t *testing.T) {
	net, ins, labels := stateNet()
	for _, in := range ins {
		net.Forward(in, false)
	}
	net.ForwardBatch(ins[:4])
	for name, held := range trainingState(net) {
		if held {
			t.Errorf("inference-only net holds %s", name)
		}
	}
	tr := &Trainer{Net: net, Config: DefaultSGD()}
	tr.Step(ins[:4], labels[:4])
	firstIn := map[string]bool{"conv1.gradIn": true, "conv1.wPackedAT": true, "conv1.goPackedB": true}
	for name, held := range trainingState(net) {
		if held == firstIn[name] {
			t.Errorf("after one Step, %s allocated = %v, want %v", name, held, !firstIn[name])
		}
	}
}

// TestMomentumCarriesAcrossTrainers: a step with Trainer A and then a
// step with a fresh Trainer B leave W and V bit-identical to one
// Trainer taking both steps, because the momentum lives on the Param.
// core's pre-train, sparsify and fine-tune stages rely on this.
func TestMomentumCarriesAcrossTrainers(t *testing.T) {
	one, ins, labels := stateNet()
	two, _, _ := stateNet()
	cfg := DefaultSGD()
	cfg.Workers = 1
	b1, b2 := ins[:6], ins[6:]
	l1, l2 := labels[:6], labels[6:]

	tr := &Trainer{Net: one, Config: cfg}
	tr.Step(b1, l1)
	tr.Step(b2, l2)
	(&Trainer{Net: two, Config: cfg}).Step(b1, l1)
	(&Trainer{Net: two, Config: cfg}).Step(b2, l2)

	pb := two.Params()
	for i, p := range one.Params() {
		for j := range p.W.Data {
			if math.Float32bits(p.W.Data[j]) != math.Float32bits(pb[i].W.Data[j]) {
				t.Fatalf("%s W[%d]: one trainer %v, two trainers %v", p.Name, j, p.W.Data[j], pb[i].W.Data[j])
			}
			if math.Float32bits(p.V.Data[j]) != math.Float32bits(pb[i].V.Data[j]) {
				t.Fatalf("%s V[%d]: one trainer %v, two trainers %v", p.Name, j, p.V.Data[j], pb[i].V.Data[j])
			}
		}
	}
}

// TestFitTwoWorkersNeverTrained: Fit with a two-replica pool on a net
// that has never trained allocates its state before cloning the pool
// and matches the one-worker run bit for bit. Meant to run under
// -race, so it stays small and is not skipped by -short.
func TestFitTwoWorkersNeverTrained(t *testing.T) {
	var nets [2]*Network
	var stats [2]EpochStats
	for i, workers := range []int{1, 2} {
		net, ins, labels := stateNet()
		cfg := DefaultSGD()
		cfg.Epochs, cfg.BatchSize, cfg.Workers = 2, 4, workers
		stats[i] = (&Trainer{Net: net, Config: cfg}).Fit(ins, labels)
		nets[i] = net
	}
	if stats[0] != stats[1] {
		t.Fatalf("epoch stats differ: workers=1 %+v, workers=2 %+v", stats[0], stats[1])
	}
	pb := nets[1].Params()
	for i, p := range nets[0].Params() {
		for j, v := range p.W.Data {
			if math.Float32bits(v) != math.Float32bits(pb[i].W.Data[j]) {
				t.Fatalf("%s W[%d]: workers=1 %v, workers=2 %v", p.Name, j, v, pb[i].W.Data[j])
			}
		}
	}
}
