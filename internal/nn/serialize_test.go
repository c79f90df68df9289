package nn

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"learn2scale/internal/tensor"
)

func buildSerNet(rng *rand.Rand) *Network {
	net := NewNetwork("ser").Add(
		NewConv2D("c1", 1, 8, 8, 4, 3, 1, 1, 1),
		NewReLU("r1"),
		NewFlatten("f"),
		NewFullyConnected("fc", 4*8*8, 5),
	)
	net.Init(rng)
	return net
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := buildSerNet(rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buildSerNet(rand.New(rand.NewSource(99))) // different init
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 8, 8)
	in.RandN(rng, 1)
	outA := a.Forward(in, false)
	outB := b.Forward(in, false)
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			t.Fatalf("outputs differ after load: %v vs %v", outA.Data[i], outB.Data[i])
		}
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := buildSerNet(rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewNetwork("ser").Add(NewFullyConnected("fc", 10, 5))
	other.Init(rng)
	if err := other.Load(&buf); err == nil {
		t.Error("param-count mismatch must error")
	}
}

func TestLoadRejectsRenamedParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := buildSerNet(rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewNetwork("ser").Add(
		NewConv2D("renamed", 1, 8, 8, 4, 3, 1, 1, 1),
		NewReLU("r1"),
		NewFlatten("f"),
		NewFullyConnected("fc", 4*8*8, 5),
	)
	b.Init(rng)
	if err := b.Load(&buf); err == nil {
		t.Error("renamed parameter must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := buildSerNet(rng)
	if err := net.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage input must error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := buildSerNet(rng)
	path := filepath.Join(t.TempDir(), "model.l2s")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := buildSerNet(rand.New(rand.NewSource(6)))
	if err := b.Load(f); err != nil {
		t.Fatal(err)
	}
	if b.Params()[0].W.Data[0] != a.Params()[0].W.Data[0] {
		t.Error("file round trip lost weights")
	}
}
