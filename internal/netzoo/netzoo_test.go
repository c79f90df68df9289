package netzoo

import (
	"math/rand"
	"testing"

	"learn2scale/internal/nn"
	"learn2scale/internal/tensor"
)

func TestMLPShapes(t *testing.T) {
	shapes := MLP().Shapes()
	if len(shapes) != 3 {
		t.Fatalf("MLP has %d layers", len(shapes))
	}
	if shapes[0].InC != 784 || shapes[0].OutC != 512 {
		t.Errorf("ip1: %d→%d", shapes[0].InC, shapes[0].OutC)
	}
	if shapes[1].InC != 512 || shapes[1].OutC != 304 {
		t.Errorf("ip2: %d→%d", shapes[1].InC, shapes[1].OutC)
	}
	if MLP().Classes() != 10 {
		t.Errorf("Classes = %d", MLP().Classes())
	}
}

func TestLeNetShapes(t *testing.T) {
	shapes := LeNet().Shapes()
	// conv1: 28→24, pool→12, conv2: 12→8, pool→4, flatten 50*16=800.
	conv2 := shapes[2]
	if conv2.Spec.Name != "conv2" || conv2.OutC != 50 || conv2.OutH != 8 {
		t.Errorf("conv2 shape: %+v", conv2)
	}
	ip1 := shapes[4]
	if ip1.InC != 800 || ip1.OutC != 500 {
		t.Errorf("ip1: %d→%d, want 800→500", ip1.InC, ip1.OutC)
	}
}

func TestCaffeNetShapes(t *testing.T) {
	shapes := CaffeNet().Shapes()
	// conv1: (227-11)/4+1 = 55.
	if shapes[0].OutH != 55 {
		t.Errorf("conv1 out %d, want 55", shapes[0].OutH)
	}
	// pool1: (55-3)/2+1 = 27; conv2 keeps 27 (pad 2, k 5).
	if shapes[2].OutH != 27 || shapes[2].OutC != 256 {
		t.Errorf("conv2: %+v", shapes[2])
	}
	// ip1 fan-in: 256*6*6 = 9216.
	var ip1 LayerShape
	for _, s := range shapes {
		if s.Spec.Name == "ip1" {
			ip1 = s
		}
	}
	if ip1.InC != 9216 {
		t.Errorf("ip1 fan-in = %d, want 9216", ip1.InC)
	}
}

func TestVGG19LayerCount(t *testing.T) {
	syn := VGG19().SynapticShapes()
	if len(syn) != 19 {
		t.Errorf("VGG19 synaptic layers = %d, want 19", len(syn))
	}
	// conv2_1 input is 64×112×112 after pool1.
	if syn[2].InC != 64 || syn[2].InH != 112 {
		t.Errorf("conv2_1 input: %+v", syn[2])
	}
}

func TestMACOrderingAcrossZoo(t *testing.T) {
	// Work must grow MLP < LeNet < ConvNet < CaffeNet < VGG19 —
	// the ordering behind the paper's Table I.
	total := func(s NetSpec) int64 {
		var sum int64
		for _, l := range s.Shapes() {
			sum += l.MACs()
		}
		return sum
	}
	m, le, cn, an, vg := total(MLP()), total(LeNet()), total(ConvNet()), total(CaffeNet()), total(VGG19())
	if !(m < le && le < cn && cn < an && an < vg) {
		t.Errorf("MAC ordering broken: %d %d %d %d %d", m, le, cn, an, vg)
	}
	// VGG19 is ~19.6 GMACs; sanity-check the absolute scale.
	if vg < 15e9 || vg > 25e9 {
		t.Errorf("VGG19 MACs = %d, want ~19.6G", vg)
	}
}

func TestCaffeNetParameterScale(t *testing.T) {
	// CaffeNet has ~60M parameters, dominated by ip1 (37.7M).
	var total int
	for _, l := range CaffeNet().SynapticShapes() {
		total += l.OutC * l.KernelVolume()
	}
	if total < 55e6 || total > 65e6 {
		t.Errorf("CaffeNet weights = %d, want ~60M", total)
	}
}

func TestConvNetI10Variants(t *testing.T) {
	p1 := ConvNetI10([3]int{64, 128, 256}, 1, 64)
	p2 := ConvNetI10([3]int{64, 128, 256}, 16, 64)
	p3 := ConvNetI10([3]int{64, 160, 320}, 16, 64)
	// Grouping cuts conv2/conv3 kernel volume by the group count.
	s1 := p1.SynapticShapes()
	s2 := p2.SynapticShapes()
	if s2[1].KernelVolume()*16 != s1[1].KernelVolume() {
		t.Errorf("conv2 kernel volume: grouped %d vs full %d", s2[1].KernelVolume(), s1[1].KernelVolume())
	}
	// Parallel#3 has more kernels than #2.
	s3 := p3.SynapticShapes()
	if s3[1].OutC <= s2[1].OutC || s3[2].OutC <= s2[2].OutC {
		t.Error("Parallel#3 must widen conv2/conv3")
	}
}

func TestGroupsMustDivideChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-dividing groups must panic")
		}
	}()
	bad := NetSpec{Name: "bad", InC: 3, InH: 8, InW: 8, Layers: []LayerSpec{
		{Name: "c", Kind: Conv, OutC: 10, K: 3, Stride: 1, Groups: 4},
	}}
	bad.Shapes()
}

func TestConvAfterFlattenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("conv after FC must panic")
		}
	}()
	bad := NetSpec{Name: "bad", InC: 1, InH: 8, InW: 8, Layers: []LayerSpec{
		{Name: "fc", Kind: FC, Out: 10},
		{Name: "c", Kind: Conv, OutC: 4, K: 3, Stride: 1},
	}}
	bad.Shapes()
}

func TestBuildRunsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []NetSpec{MLP(), LeNet(), ConvNet(), ConvNetI10([3]int{16, 32, 64}, 1, 32)} {
		net := spec.Build(rng)
		in := tensor.New(spec.InC, spec.InH, spec.InW)
		in.RandN(rng, 1)
		out := net.Forward(in, false)
		if out.Len() != spec.Classes() {
			t.Errorf("%s: output %d classes, want %d", spec.Name, out.Len(), spec.Classes())
		}
	}
}

func TestBuildGroupedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spec := ConvNetI10([3]int{16, 32, 64}, 4, 32)
	net := spec.Build(rng)
	in := tensor.New(3, 32, 32)
	in.RandN(rng, 1)
	if out := net.Forward(in, false); out.Len() != 10 {
		t.Errorf("grouped build output = %d", out.Len())
	}
}

func TestBuildBackwardTrainStep(t *testing.T) {
	// One training step through a built LeNet must not panic and must
	// change the weights.
	rng := rand.New(rand.NewSource(3))
	net := LeNet().Build(rng)
	in := tensor.New(1, 28, 28)
	in.RandN(rng, 1)
	before := net.Params()[0].W.Clone()
	(&nn.Trainer{Net: net, Config: nn.DefaultSGD()}).Step([]*tensor.Tensor{in}, []int{3})
	changed := false
	for i := range before.Data {
		if before.Data[i] != net.Params()[0].W.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("training step did not change weights")
	}
}

func TestLayerKindString(t *testing.T) {
	if Conv.String() != "conv" || Pool.String() != "pool" || FC.String() != "fc" {
		t.Error("LayerKind strings wrong")
	}
	if LayerKind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestResNet18Shapes(t *testing.T) {
	s := ResNet18()
	shapes := s.Shapes()
	// conv1: 224 → 112; pool1 → 56; stage5 ends at 7×7×512.
	if shapes[0].OutH != 112 {
		t.Errorf("conv1 out %d, want 112", shapes[0].OutH)
	}
	var last LayerShape
	for _, ls := range shapes {
		if ls.Spec.Name == "conv5_2b" {
			last = ls
		}
	}
	if last.OutC != 512 || last.OutH != 7 {
		t.Errorf("conv5_2b: %dx%dx%d, want 512x7x7", last.OutC, last.OutH, last.OutW)
	}
	// 18 synaptic layers (conv1 + 16 stage convs + final FC).
	if got := len(s.SynapticShapes()); got != 18 {
		t.Errorf("synaptic layers = %d, want 18", got)
	}
	if s.Classes() != 1000 {
		t.Errorf("classes = %d", s.Classes())
	}
}

func TestResidualValidation(t *testing.T) {
	mustPanic := func(name string, spec NetSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		spec.Shapes()
	}
	mustPanic("unknown source", NetSpec{
		Name: "bad", InC: 1, InH: 8, InW: 8,
		Layers: []LayerSpec{
			{Name: "c", Kind: Conv, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Name: "r", Kind: Residual, From: "nope"},
		},
	})
	mustPanic("shape mismatch", NetSpec{
		Name: "bad", InC: 1, InH: 8, InW: 8,
		Layers: []LayerSpec{
			{Name: "c1", Kind: Conv, OutC: 4, K: 3, Stride: 1, Pad: 1},
			{Name: "c2", Kind: Conv, OutC: 8, K: 3, Stride: 1, Pad: 1},
			{Name: "r", Kind: Residual, From: "c1"}, // 4ch vs 8ch
		},
	})
}

func TestResidualBuildRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build of a residual spec must panic")
		}
	}()
	ResNet18().Build(rand.New(rand.NewSource(1)))
}

func TestResNet18PartitionableTraffic(t *testing.T) {
	// The analytic path must handle the residual spec: identity skips
	// are channel-aligned with the partition, so only conv/fc
	// transitions move data.
	s := ResNet18()
	var total int64
	for _, ls := range s.Shapes() {
		if ls.Spec.Kind == Residual && ls.OutC != ls.InC {
			t.Errorf("residual changed channels")
		}
		total += ls.MACs()
	}
	// ~1.8 GMACs for ResNet-18.
	if total < 1.4e9 || total > 2.4e9 {
		t.Errorf("ResNet18 MACs = %d, want ~1.8G", total)
	}
}

// TestByName resolves every zoo network in any letter case and rejects
// names that are not in the zoo.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"mlp": "MLP", "MLP": "MLP", "LeNet": "LeNet", "CONVNET": "ConvNet",
		"alexnet": "AlexNet", "CaffeNet": "CaffeNet", "vgg19": "VGG19", "ResNet18": "ResNet18",
	} {
		if got, ok := ByName(name); !ok || got.Name != want {
			t.Errorf("ByName(%q) = %q, %v; want %q", name, got.Name, ok, want)
		}
	}
	for _, name := range []string{"", "mlp2", "caffenet-mid"} {
		if got, ok := ByName(name); ok {
			t.Errorf("ByName(%q) = %q, want not found", name, got.Name)
		}
	}
}
