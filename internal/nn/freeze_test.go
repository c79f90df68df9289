package nn

import (
	"bytes"
	"strings"
	"testing"

	"learn2scale/internal/tensor"
)

// mustPanic runs f and fails unless it panics with a message that
// contains want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not name %q", what, r, want)
		}
	}()
	f()
}

// TestFreezeRefusesTraining: a frozen net cannot train, whether it
// trained before Freeze or never did: Backward and an SGD step panic
// naming the parameter, instead of a nil dereference or a silent
// allocation, and Load refuses to change its weights.
func TestFreezeRefusesTraining(t *testing.T) {
	for _, trained := range []bool{false, true} {
		net, ins := batchTestMLP()
		if trained {
			(&Trainer{Net: net, Config: DefaultSGD()}).Step(ins[:2], []int{0, 1})
		}
		var ckpt bytes.Buffer
		if err := net.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		net.Freeze()
		logits := net.Forward(ins[0], true)
		grad := tensor.New(logits.Shape...)
		mustPanic(t, "network backward", "ip3", func() { netBackward(net, grad) })
		tr := &Trainer{Net: net, Config: DefaultSGD()}
		mustPanic(t, "Trainer.Step", "ip1", func() { tr.Step(ins[:2], []int{0, 1}) })
		mustPanic(t, "Trainer.Fit", "ip1", func() { tr.Fit(ins[:2], []int{0, 1}) })
		if err := net.Load(&ckpt); err == nil || !strings.Contains(err.Error(), "frozen") {
			t.Fatalf("Load into a frozen net (trained %v): err = %v", trained, err)
		}
	}

	conv, convIns := quantTestNet(t)
	conv.Freeze()
	c1 := conv.Layers[0]
	out := c1.Forward(convIns[0], true)
	mustPanic(t, "Conv2D backward", "conv1", func() { backward(c1, out) })
}

// TestFreezeIdempotent: a second Freeze repacks into the same buffer
// and keeps the outputs.
func TestFreezeIdempotent(t *testing.T) {
	net, ins := batchTestMLP()
	net.Freeze()
	fc := net.Layers[1].(*FullyConnected)
	packed := &fc.wp[0]
	want := append([]float32(nil), net.Forward(ins[0], false).Data...)
	net.Freeze()
	if &fc.wp[0] != packed {
		t.Fatal("second Freeze reallocated the packed weights")
	}
	checkRow(t, "Forward after a second Freeze", net.Forward(ins[0], false).Data, want)
}

// TestFreezeReleasesTrainingBuffers: after Freeze no parameter of a
// net that trained reaches a gradient or momentum buffer, and no FC
// layer holds its backward operands; the frozen net computes the
// logits it computed before.
func TestFreezeReleasesTrainingBuffers(t *testing.T) {
	net, ins := batchTestMLP()
	(&Trainer{Net: net, Config: DefaultSGD()}).Step(ins[:2], []int{0, 1})
	want := append([]float32(nil), net.Forward(ins[0], false).Data...)
	net.Freeze()
	for _, p := range net.Params() {
		if p.G != nil || p.V != nil {
			t.Errorf("%s still holds G or V after Freeze", p.Name)
		}
	}
	for _, l := range net.Layers {
		if fc, ok := l.(*FullyConnected); ok && (fc.xp != nil || fc.gp != nil) {
			t.Errorf("%s still holds its backward operands after Freeze", fc.name)
		}
	}
	checkRow(t, "frozen Forward", net.Forward(ins[0], false).Data, want)
}
