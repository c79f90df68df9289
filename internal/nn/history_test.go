package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"learn2scale/internal/parallel"
	"learn2scale/internal/tensor"
)

// historyNets are the conv trainers TestTrainingHistoryPinned pins,
// each with its labelled set of ten inputs. golden.sum trains only the
// MLP, so these digests are the conv trainer's record across rewrites.
var historyNets = []struct {
	name   string
	digest string
	build  func(rng *rand.Rand) (*Network, []int)
}{
	{"lenet", "6f4a888022d3f9b2f24bc888d345f794d5cd03456c48f3409a145c84457919e7", func(rng *rand.Rand) (*Network, []int) {
		return NewNetwork("hist-lenet").Add(
			NewConv2D("conv1", 1, 12, 12, 4, 5, 1, 2, 1),
			NewReLU("relu1"),
			NewMaxPool2D("pool1", 4, 12, 12, 2, 2),
			NewConv2D("conv2", 4, 6, 6, 6, 3, 1, 0, 1),
			NewReLU("relu2"),
			NewMaxPool2D("pool2", 6, 4, 4, 2, 2),
			NewFlatten("flat"),
			NewFullyConnected("ip1", 6*2*2, 12),
			NewReLU("relu3"),
			NewFullyConnected("ip2", 12, 4),
		), []int{1, 12, 12}
	}},
	{"grouped-lrn-avg", "5344b1d5c89950973536180685e2225016749e96f3a7ee63c2135556bee40ac8", func(rng *rand.Rand) (*Network, []int) {
		return NewNetwork("hist-grouped").Add(
			NewConv2D("conv1", 4, 9, 9, 6, 3, 2, 1, 2),
			NewLRN("norm1", 6, 5, 5, 5, 0, 0, 0),
			NewReLU("relu1"),
			NewAvgPool2D("pool1", 6, 5, 5, 2, 2),
			NewFlatten("flat"),
			NewFullyConnected("ip1", 6*2*2, 5),
		), []int{4, 9, 9}
	}},
	{"dropout", "e04d96905f05eba6c1d32f7528f04fb1a4372f05b185aedb873f5580231a0bd1", func(rng *rand.Rand) (*Network, []int) {
		return NewNetwork("hist-dropout").Add(
			NewConv2D("conv1", 2, 8, 8, 4, 3, 1, 1, 1),
			NewReLU("relu1"),
			NewMaxPool2D("pool1", 4, 8, 8, 2, 2),
			NewFlatten("flat"),
			NewFullyConnected("ip1", 4*4*4, 10),
			NewReLU("relu2"),
			NewDropout("drop", 0.3, rand.New(rand.NewSource(rng.Int63()))),
			NewFullyConnected("ip2", 10, 3),
		), []int{2, 8, 8}
	}},
}

// TestTrainingHistoryPinned trains each of historyNets at 1 and 2 host
// workers, two Fit epochs over ten inputs in batches of four (the last
// one ragged) and then three Steps, and requires a sha256 over every
// epoch record, every step's loss and correct count, and every W and V
// to equal the digest pinned for the net.
func TestTrainingHistoryPinned(t *testing.T) {
	for _, hn := range historyNets {
		for _, workers := range []string{"1", "2"} {
			t.Run(hn.name+"/workers="+workers, func(t *testing.T) {
				t.Setenv(parallel.EnvWorkers, workers)
				if got := trainingHistory(hn.build); got != hn.digest {
					t.Fatalf("training history digest %s, pinned %s", got, hn.digest)
				}
			})
		}
	}
}

// trainingHistory builds a net, trains it and digests the run.
func trainingHistory(build func(rng *rand.Rand) (*Network, []int)) string {
	rng := rand.New(rand.NewSource(29))
	net, shape := build(rng)
	net.Init(rng)
	ins := make([]*tensor.Tensor, 10)
	labels := make([]int, len(ins))
	for i := range ins {
		ins[i] = tensor.New(shape...)
		ins[i].RandN(rng, 1)
		labels[i] = i % 3
	}
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	cfg := DefaultSGD()
	cfg.Epochs, cfg.BatchSize = 2, 4
	tr := &Trainer{Net: net, Config: cfg, AfterEpoch: func(s EpochStats) bool {
		put(int64(s.Epoch))
		put([]float64{s.Loss, s.Penalty, s.TrainAcc, s.LearnRate})
		return true
	}}
	tr.Fit(ins, labels)
	for i := 0; i < 3; i++ {
		loss, ok := tr.Step(ins[2*i:2*i+3], labels[2*i:2*i+3])
		put(math.Float64bits(loss))
		put(int64(ok))
	}
	for _, p := range net.Params() {
		put(p.W.Data)
		put(p.V.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
