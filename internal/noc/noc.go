// Package noc is a flit-level, cycle-driven simulator of the 2D-mesh
// wormhole network-on-chip configured in the paper's Table II: 512-bit
// flits, 20-flit packets, dimension-ordered (XY) routing, 3-stage
// router pipeline, credit-based virtual-channel flow control with 3
// VCs, and 2 physical channels (modelled as two independent link
// planes with round-robin packet assignment). It stands in for the
// BookSim2 runs the paper used.
//
// The simulator answers the question the paper's evaluation needs:
// given the burst of synchronization messages emitted at a layer
// transition, how many cycles does the NoC take to drain it, and what
// energy-relevant events (buffer reads/writes, switch and link
// traversals) occur along the way.
package noc

import (
	"fmt"

	"learn2scale/internal/fault"
	"learn2scale/internal/obs"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// Port indices of a mesh router.
const (
	PortLocal = iota
	PortEast
	PortWest
	PortNorth
	PortSouth
	numPorts
)

// maxVCs bounds Config.VCs so a router's numPorts·VCs input VCs, at
// most maxSlots, fit the 64-bit occupancy and request masks of switch
// allocation.
const (
	maxVCs   = 64 / numPorts
	maxSlots = numPorts * maxVCs
)

// Config describes the simulated network. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	Mesh        topology.Mesh
	FlitBytes   int // payload bytes per flit (512-bit flit = 64)
	PacketFlits int // max flits per packet, head included (20)
	VCs         int // virtual channels per input port (3), at most 12
	BufDepth    int // flit slots per VC buffer
	Stages      int // router pipeline depth in cycles (3)
	Planes      int // physical channels (2)
	MaxCycles   int64

	// Obs, when non-nil, receives per-run simulation metrics: the
	// packet-latency histogram and the router queue-occupancy
	// high-water mark. All NoC metrics are stable — packet latencies
	// are simulated cycles, not wall time — so they land in the
	// deterministic section of a flight record.
	Obs *obs.Registry

	// Timeline, when non-nil, receives a cycle-accurate event trace of
	// every RunBurst: per-packet inject/hop/eject lifecycles,
	// retransmission attempts, and exact per-link busy intervals, each
	// burst in its own auto-registered section. Callers that manage
	// sections themselves (internal/cmp registers one per layer) pass
	// them to Session.Inject instead. All stamps are simulated cycles;
	// tracing never changes simulation behaviour or Results.
	Timeline *timeline.Sink

	// Fault, when non-nil and active, injects the configured faults
	// into every run: structural faults (dead links/routers) switch
	// routing from XY to deadlock-free up*/down* around the dead
	// hardware, transient faults corrupt flits in flight (detected at
	// tail ejection and retransmitted with exponential backoff up to
	// the retry budget; packets that exhaust it are reported through
	// Session.Lost). A nil or inactive config is bit-identical to the
	// fault-free simulator.
	Fault *fault.Config
}

// DefaultConfig returns the paper's Table II NoC on the given mesh.
func DefaultConfig(m topology.Mesh) Config {
	return Config{
		Mesh:        m,
		FlitBytes:   64, // 512-bit flit
		PacketFlits: 20,
		VCs:         3,
		BufDepth:    8,
		Stages:      3,
		Planes:      2,
		MaxCycles:   200_000_000,
	}
}

func (c Config) validate() error {
	switch {
	case c.Mesh.Nodes() == 0:
		return fmt.Errorf("noc: config has empty mesh")
	case c.FlitBytes <= 0, c.PacketFlits < 2, c.VCs <= 0, c.BufDepth <= 0,
		c.Stages <= 0, c.Planes <= 0:
		return fmt.Errorf("noc: non-positive parameter in config %+v", c)
	case c.VCs > maxVCs:
		return fmt.Errorf("noc: %d VCs per port exceeds the limit of %d", c.VCs, maxVCs)
	}
	return c.Fault.Validate(c.Mesh)
}

// PayloadPerPacket returns the data bytes one packet can carry
// (one flit is the head).
func (c Config) PayloadPerPacket() int {
	return (c.PacketFlits - 1) * c.FlitBytes
}

// TimelinePlatform returns the simulated-hardware parameters a timeline
// analyzer needs to decompose this network's latencies.
func (c Config) TimelinePlatform() timeline.Platform {
	return timeline.Platform{
		MeshW: c.Mesh.W, MeshH: c.Mesh.H,
		Stages: c.Stages, Planes: c.Planes, VCs: c.VCs,
		FlitBytes: c.FlitBytes, PacketFlits: c.PacketFlits,
	}
}

// Message is one source→destination transfer of Bytes data bytes,
// injected at cycle Time. Messages with Src == Dst or Bytes <= 0 carry
// no traffic and are ignored by the simulator.
type Message struct {
	Src, Dst int
	Bytes    int
	Time     int64
}

// Result aggregates one simulation run.
type Result struct {
	Cycles  int64 // cycle at which the last flit was ejected
	Packets int64
	Flits   int64

	// EjectedPackets counts packets delivered intact. Together with the
	// fault-path counters it closes the conservation invariant the
	// pipeline fuzzer checks: without structural faults,
	// Packets == EjectedPackets + LostPackets.
	EjectedPackets int64

	LinkTraversals   int64 // flit-hops across inter-router links
	SwitchTraversals int64 // crossbar traversals (includes ejection)
	BufferWrites     int64
	BufferReads      int64

	TotalPacketLatency int64 // sum over packets of (eject − inject) cycles
	MaxPacketLatency   int64

	// MaxRouterOccupancy is the high-water mark of flits buffered
	// across the input VCs of any single router during the run — the
	// congestion depth the burst reached.
	MaxRouterOccupancy int64

	// Fault-path outcomes; all zero on a fault-free run.
	Retransmits  int64 // packet retransmissions scheduled after corrupt ejections
	DroppedFlits int64 // flits corrupted while crossing a flaky link
	LostPackets  int64 // packets abandoned: retry budget exhausted or endpoints disconnected
	LostFlits    int64 // flits of lost packets (never delivered payload)
}

// AvgLatency returns the mean packet latency in cycles.
func (r Result) AvgLatency() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.TotalPacketLatency) / float64(r.Packets)
}

// Add accumulates another result into r (used when summing layer
// transitions into a whole-network total).
func (r *Result) Add(o Result) {
	r.Cycles += o.Cycles
	r.Packets += o.Packets
	r.Flits += o.Flits
	r.EjectedPackets += o.EjectedPackets
	r.LinkTraversals += o.LinkTraversals
	r.SwitchTraversals += o.SwitchTraversals
	r.BufferWrites += o.BufferWrites
	r.BufferReads += o.BufferReads
	r.TotalPacketLatency += o.TotalPacketLatency
	r.Retransmits += o.Retransmits
	r.DroppedFlits += o.DroppedFlits
	r.LostPackets += o.LostPackets
	r.LostFlits += o.LostFlits
	if o.MaxPacketLatency > r.MaxPacketLatency {
		r.MaxPacketLatency = o.MaxPacketLatency
	}
	if o.MaxRouterOccupancy > r.MaxRouterOccupancy {
		r.MaxRouterOccupancy = o.MaxRouterOccupancy
	}
}

// LostTransfer identifies one src→dst transfer the network failed to
// deliver — its retry budget ran out, or structural faults
// disconnected the endpoints. The receiving core zero-fills the
// transfer's slice so inference completes with reduced accuracy
// instead of deadlocking (graceful degradation, handled by
// internal/cmp).
type LostTransfer struct {
	Src, Dst int
}

func flitsForBytes(cfg Config, bytes int) int {
	payload := cfg.PayloadPerPacket()
	full := bytes / payload
	rem := bytes % payload
	flits := full * cfg.PacketFlits
	if rem > 0 {
		flits += 1 + (rem+cfg.FlitBytes-1)/cfg.FlitBytes
	}
	return flits
}

// PacketsForBytes returns how many packets a message of the given size
// occupies under cfg.
func PacketsForBytes(cfg Config, bytes int) int {
	payload := cfg.PayloadPerPacket()
	n := bytes / payload
	if bytes%payload > 0 {
		n++
	}
	return n
}
