package netzoo

import (
	"fmt"
	"strings"
)

// zoo lists the named networks ByName resolves.
var zoo = []struct {
	name string
	spec func() NetSpec
}{
	{"mlp", MLP},
	{"lenet", LeNet},
	{"convnet", ConvNet},
	{"alexnet", AlexNet},
	{"caffenet", CaffeNet},
	{"vgg19", VGG19},
	{"resnet18", ResNet18},
}

// ByName returns the zoo network called name, in any letter case:
// mlp, lenet, convnet, alexnet, caffenet, vgg19 or resnet18.
func ByName(name string) (NetSpec, bool) {
	for _, n := range zoo {
		if strings.EqualFold(n.name, name) {
			return n.spec(), true
		}
	}
	return NetSpec{}, false
}

// MLP returns the paper's MLP: three fully-connected layers of
// 512/304/10 neurons on 28×28 MNIST input.
func MLP() NetSpec {
	return NetSpec{
		Name: "MLP", InC: 1, InH: 28, InW: 28,
		Layers: []LayerSpec{
			{Name: "ip1", Kind: FC, Out: 512},
			{Name: "ip2", Kind: FC, Out: 304},
			{Name: "ip3", Kind: FC, Out: 10},
		},
	}
}

// LeNet returns the Caffe LeNet on MNIST: conv(20,5) → pool →
// conv(50,5) → pool → fc500 → fc10.
func LeNet() NetSpec {
	return NetSpec{
		Name: "LeNet", InC: 1, InH: 28, InW: 28,
		Layers: []LayerSpec{
			{Name: "conv1", Kind: Conv, OutC: 20, K: 5, Stride: 1},
			{Name: "pool1", Kind: Pool, K: 2, Stride: 2},
			{Name: "conv2", Kind: Conv, OutC: 50, K: 5, Stride: 1},
			{Name: "pool2", Kind: Pool, K: 2, Stride: 2},
			{Name: "ip1", Kind: FC, Out: 500},
			{Name: "ip2", Kind: FC, Out: 10},
		},
	}
}

// ConvNet returns the Caffe cifar10-quick network on 3×32×32 input:
// three conv(5)+pool stages (32/32/64 kernels) and two FC layers.
func ConvNet() NetSpec {
	return NetSpec{
		Name: "ConvNet", InC: 3, InH: 32, InW: 32,
		Layers: []LayerSpec{
			{Name: "conv1", Kind: Conv, OutC: 32, K: 5, Stride: 1, Pad: 2},
			{Name: "pool1", Kind: Pool, K: 2, Stride: 2},
			{Name: "conv2", Kind: Conv, OutC: 32, K: 5, Stride: 1, Pad: 2},
			{Name: "pool2", Kind: Pool, K: 2, Stride: 2, Avg: true},
			{Name: "conv3", Kind: Conv, OutC: 64, K: 5, Stride: 1, Pad: 2},
			{Name: "pool3", Kind: Pool, K: 2, Stride: 2, Avg: true},
			{Name: "ip1", Kind: FC, Out: 64},
			{Name: "ip2", Kind: FC, Out: 10},
		},
	}
}

// CaffeNet returns the Caffe-provided AlexNet variant on 3×227×227
// ImageNet input (single-group convolutions — the traditional
// parallelization baseline the paper partitions).
func CaffeNet() NetSpec {
	return NetSpec{
		Name: "CaffeNet", InC: 3, InH: 227, InW: 227,
		Layers: []LayerSpec{
			{Name: "conv1", Kind: Conv, OutC: 96, K: 11, Stride: 4},
			{Name: "pool1", Kind: Pool, K: 3, Stride: 2},
			{Name: "conv2", Kind: Conv, OutC: 256, K: 5, Stride: 1, Pad: 2},
			{Name: "pool2", Kind: Pool, K: 3, Stride: 2},
			{Name: "conv3", Kind: Conv, OutC: 384, K: 3, Stride: 1, Pad: 1},
			{Name: "conv4", Kind: Conv, OutC: 384, K: 3, Stride: 1, Pad: 1},
			{Name: "conv5", Kind: Conv, OutC: 256, K: 3, Stride: 1, Pad: 1},
			{Name: "pool5", Kind: Pool, K: 3, Stride: 2},
			{Name: "ip1", Kind: FC, Out: 4096, Dropout: 0.5},
			{Name: "ip2", Kind: FC, Out: 4096, Dropout: 0.5},
			{Name: "ip3", Kind: FC, Out: 1000},
		},
	}
}

// AlexNet is an alias of CaffeNet at paper scale (the paper uses
// "AlexNet" in Table I and "CaffeNet" in Table IV for the same model
// family).
func AlexNet() NetSpec {
	s := CaffeNet()
	s.Name = "AlexNet"
	return s
}

// VGG19 returns VGG-19 on 3×224×224 ImageNet input: 16 conv layers in
// five blocks plus three FC layers.
func VGG19() NetSpec {
	s := NetSpec{Name: "VGG19", InC: 3, InH: 224, InW: 224}
	block := func(tag string, n, outC int) {
		for i := 1; i <= n; i++ {
			s.Layers = append(s.Layers, LayerSpec{
				Name: fmt.Sprintf("conv%s_%d", tag, i), Kind: Conv,
				OutC: outC, K: 3, Stride: 1, Pad: 1,
			})
		}
		s.Layers = append(s.Layers, LayerSpec{Name: "pool" + tag, Kind: Pool, K: 2, Stride: 2})
	}
	block("1", 2, 64)
	block("2", 2, 128)
	block("3", 4, 256)
	block("4", 4, 512)
	block("5", 4, 512)
	s.Layers = append(s.Layers,
		LayerSpec{Name: "ip1", Kind: FC, Out: 4096, Dropout: 0.5},
		LayerSpec{Name: "ip2", Kind: FC, Out: 4096, Dropout: 0.5},
		LayerSpec{Name: "ip3", Kind: FC, Out: 1000},
	)
	return s
}

// ConvNetI10 returns the Table III ConvNet variant for ImageNet10:
// three conv+pool stages with the given kernel counts (e.g. 64-128-256
// for Parallel#1/#2, 64-160-320 for Parallel#3) on 3×size×size input,
// with conv2 and conv3 split into `groups` groups (1 = traditional).
func ConvNetI10(kernels [3]int, groups, size int) NetSpec {
	name := fmt.Sprintf("ConvNet-I10-%d-%d-%d-g%d", kernels[0], kernels[1], kernels[2], groups)
	return NetSpec{
		Name: name, InC: 3, InH: size, InW: size,
		Layers: []LayerSpec{
			{Name: "conv1", Kind: Conv, OutC: kernels[0], K: 5, Stride: 1, Pad: 2},
			{Name: "pool1", Kind: Pool, K: 2, Stride: 2},
			{Name: "conv2", Kind: Conv, OutC: kernels[1], K: 5, Stride: 1, Pad: 2, Groups: groups},
			{Name: "pool2", Kind: Pool, K: 2, Stride: 2},
			{Name: "conv3", Kind: Conv, OutC: kernels[2], K: 3, Stride: 1, Pad: 1, Groups: groups},
			{Name: "pool3", Kind: Pool, K: 2, Stride: 2},
			{Name: "ip1", Kind: FC, Out: 64},
			{Name: "ip2", Kind: FC, Out: 10},
		},
	}
}

// ResNet18 returns a ResNet-18-like architecture on 3×224×224 input —
// the "Resnet-incept"-class deep network the paper's §III.B names as
// the case where partitioning traffic rockets. Identity skip
// connections are expressed with Residual layers inside equal-shape
// blocks; the stage-transition (projection) shortcuts of the original
// are approximated as plain downsampling convs, since the descriptor
// chain supports identity skips only (see LayerKind Residual).
// Analytic path only: use it with partition/cmp, not Build.
func ResNet18() NetSpec {
	s := NetSpec{Name: "ResNet18", InC: 3, InH: 224, InW: 224}
	s.Layers = append(s.Layers,
		LayerSpec{Name: "conv1", Kind: Conv, OutC: 64, K: 7, Stride: 2, Pad: 3},
		LayerSpec{Name: "pool1", Kind: Pool, K: 3, Stride: 2, Pad: 1},
	)
	stage := func(tag string, outC, downStride, blocks int) {
		for b := 1; b <= blocks; b++ {
			stride := 1
			if b == 1 {
				stride = downStride
			}
			a := fmt.Sprintf("conv%s_%da", tag, b)
			bb := fmt.Sprintf("conv%s_%db", tag, b)
			s.Layers = append(s.Layers,
				LayerSpec{Name: a, Kind: Conv, OutC: outC, K: 3, Stride: stride, Pad: 1},
				LayerSpec{Name: bb, Kind: Conv, OutC: outC, K: 3, Stride: 1, Pad: 1},
			)
			// Identity skip across the block (only when the block does
			// not change shape: from the first conv's output).
			s.Layers = append(s.Layers, LayerSpec{
				Name: fmt.Sprintf("res%s_%d", tag, b), Kind: Residual, From: a,
			})
		}
	}
	stage("2", 64, 1, 2)
	stage("3", 128, 2, 2)
	stage("4", 256, 2, 2)
	stage("5", 512, 2, 2)
	s.Layers = append(s.Layers,
		LayerSpec{Name: "pool5", Kind: Pool, K: 7, Stride: 7, Avg: true},
		LayerSpec{Name: "ip1", Kind: FC, Out: 1000},
	)
	return s
}
