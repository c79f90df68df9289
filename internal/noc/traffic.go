package noc

import (
	"fmt"
	"math/rand"

	"learn2scale/internal/topology"
)

// Pattern is a synthetic traffic pattern for open-loop evaluation —
// the standard patterns BookSim-class simulators are characterized
// with, used here to validate the router model and for the NoC
// ablation experiments.
type Pattern int

// Supported patterns.
const (
	// Uniform sends each packet to a uniformly random other node.
	Uniform Pattern = iota
	// Transpose sends node (x,y) to node (y,x).
	Transpose
	// Neighbor sends to the next node in row-major order (minimal
	// distance, stresses serialization not bisection).
	Neighbor
	// Hotspot sends half the traffic to the mesh center, the rest
	// uniformly.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case Neighbor:
		return "neighbor"
	case Hotspot:
		return "hotspot"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// GenerateTraffic builds the open-loop injection schedule: for each of
// `cycles` cycles, each node independently injects a full packet with
// probability rate/PacketFlits (so `rate` is the offered load in
// flits per node per cycle). Deterministic in seed.
func GenerateTraffic(cfg Config, pattern Pattern, rate float64, cycles int, seed int64) []Message {
	if rate < 0 || rate > float64(cfg.Planes) {
		panic(fmt.Sprintf("noc: offered load %v outside [0, planes]", rate))
	}
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Mesh.Nodes()
	pktProb := rate / float64(cfg.PacketFlits)
	payload := cfg.PayloadPerPacket()
	var msgs []Message
	for t := 0; t < cycles; t++ {
		for src := 0; src < n; src++ {
			if rng.Float64() >= pktProb {
				continue
			}
			dst := destination(pattern, cfg, src, rng)
			if dst == src {
				continue
			}
			msgs = append(msgs, Message{Src: src, Dst: dst, Bytes: payload, Time: int64(t)})
		}
	}
	return msgs
}

func destination(p Pattern, cfg Config, src int, rng *rand.Rand) int {
	n := cfg.Mesh.Nodes()
	switch p {
	case Uniform:
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	case Transpose:
		c := cfg.Mesh.Coord(src)
		if c.X < cfg.Mesh.H && c.Y < cfg.Mesh.W {
			return cfg.Mesh.ID(topology.Coord{X: c.Y, Y: c.X})
		}
		return src
	case Neighbor:
		return (src + 1) % n
	case Hotspot:
		if rng.Float64() < 0.5 {
			return cfg.Mesh.ID(topology.Coord{X: cfg.Mesh.W / 2, Y: cfg.Mesh.H / 2})
		}
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	}
	panic("noc: unknown pattern")
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	OfferedRate float64 // flits/node/cycle requested
	Accepted    float64 // flits/node/cycle actually delivered within the window
	AvgLatency  float64 // cycles, injection to tail ejection
	MaxLatency  int64
	Drained     int64 // cycle the network fully drained
}

// RunOpenLoop injects `pattern` traffic at the offered rate for
// `cycles` cycles and runs until drained. Latencies include source
// queueing, so the curve exhibits the classic saturation knee.
func (s *Simulator) RunOpenLoop(pattern Pattern, rate float64, cycles int, seed int64) (OpenLoopResult, error) {
	msgs := GenerateTraffic(s.cfg, pattern, rate, cycles, seed)
	res, err := s.RunBurst(msgs)
	if err != nil {
		return OpenLoopResult{}, err
	}
	out := OpenLoopResult{
		OfferedRate: rate,
		AvgLatency:  res.AvgLatency(),
		MaxLatency:  res.MaxPacketLatency,
		Drained:     res.Cycles,
	}
	if res.Cycles > 0 {
		out.Accepted = float64(res.Flits) / float64(res.Cycles) / float64(s.cfg.Mesh.Nodes())
	}
	return out, nil
}

// LatencyLoadCurve sweeps offered load and returns one point per rate.
// Each rate's run is one deterministic telemetry window, announced on
// cfg.Obs and spanning that run's drain cycles.
func (s *Simulator) LatencyLoadCurve(pattern Pattern, rates []float64, cycles int, seed int64) ([]OpenLoopResult, error) {
	var out []OpenLoopResult
	for _, r := range rates {
		p, err := s.RunOpenLoop(pattern, r, cycles, seed)
		if err != nil {
			return nil, err
		}
		s.cfg.Obs.Boundary(fmt.Sprintf("load %.2f", r), float64(p.Drained))
		out = append(out, p)
	}
	return out, nil
}
