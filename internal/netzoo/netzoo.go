// Package netzoo holds the architecture descriptors of every network
// the paper evaluates — MLP, LeNet, ConvNet (cifar10-quick), the
// ConvNet-ImageNet10 variants of Table III, AlexNet/CaffeNet and
// VGG19 — plus builders that turn a descriptor into a trainable
// internal/nn network.
//
// Descriptors serve two purposes. The exact paper-scale architectures
// feed the analytic experiments (Table I traffic volumes, compute-cycle
// models) that need no training. The reduced variants (same topology,
// smaller spatial resolution) feed the training-based experiments,
// where pure-Go SGD has to converge in seconds rather than GPU-days.
package netzoo

import (
	"fmt"
	"math/rand"

	"learn2scale/internal/nn"
)

// LayerKind distinguishes the structural layer types of a descriptor.
type LayerKind int

// Descriptor layer kinds.
const (
	Conv LayerKind = iota
	Pool
	FC
	// Residual adds the output of a named earlier layer to the current
	// activation (identity skip connection). Supported by the analytic
	// path (traffic/compute modelling) only; Build rejects it — the
	// trainable stack is a linear chain.
	Residual
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case Pool:
		return "pool"
	case FC:
		return "fc"
	case Residual:
		return "residual"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// LayerSpec describes one structural layer.
type LayerSpec struct {
	Name   string
	Kind   LayerKind
	OutC   int // conv: output channels
	K      int // conv/pool kernel size
	Stride int
	Pad    int
	Out    int    // fc: output neurons
	Groups int    // conv channel groups (structure-level parallelization)
	Avg    bool   // pool: average instead of max
	From   string // residual: name of the layer whose output is added
	// Dropout after this layer's activation (trainable builds only).
	Dropout float64
}

// NetSpec describes a whole network.
type NetSpec struct {
	Name          string
	InC, InH, InW int
	Layers        []LayerSpec
}

// LayerShape is a resolved layer: its spec plus input/output geometry.
type LayerShape struct {
	Spec LayerSpec
	// Input geometry. For FC layers InC carries the flattened fan-in
	// and InH = InW = 1.
	InC, InH, InW int
	// Output geometry. For FC layers OutC is the neuron count.
	OutC, OutH, OutW int
	// Synaptic reports whether the layer holds weights (conv or fc).
	Synaptic bool
}

// InActs returns the number of input activation values.
func (l LayerShape) InActs() int { return l.InC * l.InH * l.InW }

// KernelVolume returns the fan-in of one output neuron (respecting
// conv groups). Zero for pooling layers.
func (l LayerShape) KernelVolume() int {
	switch l.Spec.Kind {
	case Conv:
		g := l.Spec.Groups
		if g == 0 {
			g = 1
		}
		return (l.InC / g) * l.Spec.K * l.Spec.K
	case FC:
		return l.InActs()
	}
	return 0
}

// MACs returns the multiply-accumulate count of the layer.
func (l LayerShape) MACs() int64 {
	if !l.Synaptic {
		return 0
	}
	return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.KernelVolume())
}

// Shapes resolves the descriptor into per-layer geometry. It panics on
// inconsistent specs (negative dims, non-dividing groups).
func (s NetSpec) Shapes() []LayerShape {
	c, h, w := s.InC, s.InH, s.InW
	flat := false
	var out []LayerShape
	byName := map[string]LayerShape{}
	for _, l := range s.Layers {
		ls := LayerShape{Spec: l}
		switch l.Kind {
		case Conv:
			if flat {
				panic(fmt.Sprintf("netzoo: %s: conv %q after flatten", s.Name, l.Name))
			}
			g := l.Groups
			if g == 0 {
				g = 1
			}
			if c%g != 0 || l.OutC%g != 0 {
				panic(fmt.Sprintf("netzoo: %s: %q groups %d do not divide %d→%d", s.Name, l.Name, g, c, l.OutC))
			}
			ls.InC, ls.InH, ls.InW = c, h, w
			ls.OutC = l.OutC
			ls.OutH = (h+2*l.Pad-l.K)/l.Stride + 1
			ls.OutW = (w+2*l.Pad-l.K)/l.Stride + 1
			ls.Synaptic = true
			c, h, w = ls.OutC, ls.OutH, ls.OutW
		case Pool:
			if flat {
				panic(fmt.Sprintf("netzoo: %s: pool %q after flatten", s.Name, l.Name))
			}
			ls.InC, ls.InH, ls.InW = c, h, w
			ls.OutC = c
			ls.OutH = (h+2*l.Pad-l.K)/l.Stride + 1
			ls.OutW = (w+2*l.Pad-l.K)/l.Stride + 1
			h, w = ls.OutH, ls.OutW
		case FC:
			ls.InC, ls.InH, ls.InW = c*h*w, 1, 1
			ls.OutC, ls.OutH, ls.OutW = l.Out, 1, 1
			ls.Synaptic = true
			flat = true
			c, h, w = l.Out, 1, 1
		case Residual:
			src, ok := byName[l.From]
			if !ok {
				panic(fmt.Sprintf("netzoo: %s: residual %q references unknown layer %q", s.Name, l.Name, l.From))
			}
			if src.OutC != c || src.OutH != h || src.OutW != w {
				panic(fmt.Sprintf("netzoo: %s: residual %q shape %dx%dx%d vs source %dx%dx%d (identity skips only)",
					s.Name, l.Name, c, h, w, src.OutC, src.OutH, src.OutW))
			}
			ls.InC, ls.InH, ls.InW = c, h, w
			ls.OutC, ls.OutH, ls.OutW = c, h, w
		default:
			panic(fmt.Sprintf("netzoo: %s: unknown layer kind %v", s.Name, l.Kind))
		}
		if ls.OutH <= 0 || ls.OutW <= 0 || ls.OutC <= 0 {
			panic(fmt.Sprintf("netzoo: %s: layer %q has empty output %dx%dx%d",
				s.Name, l.Name, ls.OutC, ls.OutH, ls.OutW))
		}
		out = append(out, ls)
		if l.Name != "" {
			byName[l.Name] = ls
		}
	}
	return out
}

// SynapticShapes returns only the weight-bearing layers, in order.
func (s NetSpec) SynapticShapes() []LayerShape {
	var out []LayerShape
	for _, l := range s.Shapes() {
		if l.Synaptic {
			out = append(out, l)
		}
	}
	return out
}

// Classes returns the output dimension of the final layer.
func (s NetSpec) Classes() int {
	sh := s.Shapes()
	return sh[len(sh)-1].OutC
}

// Build turns the descriptor into a trainable network: each conv/fc
// layer is followed by ReLU (except the final classifier), pools map
// to max or average pooling per their spec, and a Flatten is inserted
// before the first FC layer.
func (s NetSpec) Build(rng *rand.Rand) *nn.Network {
	net := nn.NewNetwork(s.Name)
	shapes := s.Shapes()
	flat := false
	for i, ls := range shapes {
		l := ls.Spec
		lastSynaptic := true
		for _, later := range shapes[i+1:] {
			if later.Synaptic {
				lastSynaptic = false
				break
			}
		}
		switch l.Kind {
		case Conv:
			g := l.Groups
			if g == 0 {
				g = 1
			}
			net.Add(nn.NewConv2D(l.Name, ls.InC, ls.InH, ls.InW, l.OutC, l.K, l.Stride, l.Pad, g))
			if !lastSynaptic {
				net.Add(nn.NewReLU(l.Name + ".relu"))
			}
		case Pool:
			if l.Avg {
				net.Add(nn.NewAvgPool2D(l.Name, ls.InC, ls.InH, ls.InW, l.K, l.Stride))
			} else {
				net.Add(nn.NewMaxPool2D(l.Name, ls.InC, ls.InH, ls.InW, l.K, l.Stride))
			}
		case FC:
			if !flat {
				net.Add(nn.NewFlatten(l.Name + ".flatten"))
				flat = true
			}
			net.Add(nn.NewFullyConnected(l.Name, ls.InC, l.Out))
			if !lastSynaptic {
				net.Add(nn.NewReLU(l.Name + ".relu"))
				if l.Dropout > 0 {
					net.Add(nn.NewDropout(l.Name+".drop", l.Dropout, rng))
				}
			}
		case Residual:
			panic(fmt.Sprintf("netzoo: %s: residual layers are analytic-only; Build does not support %q", s.Name, l.Name))
		}
	}
	net.Init(rng)
	return net
}
