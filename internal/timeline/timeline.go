// Package timeline is the repository's cycle-accurate event tracer: a
// sink that records, in **simulated cycles** (never wall time), the
// full lifecycle of every NoC packet — injection, per-hop router
// traversal with VC-allocation and switch stalls, ejection, and
// fault-layer retransmission attempts — plus exact per-link busy
// intervals and per-core per-layer compute spans from the CMP
// simulation.
//
// Where internal/obs answers "how much" (aggregate counters and
// histograms), timeline answers "where inside a burst the cycles go":
// which transfer chain bounds a layer's drain time, how much of a
// packet's latency is queueing vs serialization vs hop latency, and
// which mesh links run hot. Two renderers expose the data: a Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing (one track
// per router, link and core, with flow arrows stitching a packet's
// hops, see perfetto.go) and a compact deterministic JSONL record for
// tests and the cmd/l2s-trace analyzer (see record.go, analyze.go).
//
// The package follows the same two contracts as internal/obs:
//
//  1. Nil is off. Every method is safe on a nil *Sink and nil
//     *Section; the disabled path is a pointer check with no
//     allocations, so instrumentation stays inline in the NoC
//     cycle loop at zero cost when tracing is not requested.
//
//  2. Determinism. Events are stamped only with simulated cycles, and
//     ordering never depends on host scheduling: each Section is
//     recorded single-threadedly by the simulator that owns the burst,
//     and sections render in registration order — which callers (e.g.
//     internal/cmp) establish serially, in layer order, before any
//     parallel work starts. A timeline is therefore byte-identical at
//     every host worker count, so golden-file tests work.
package timeline

import "sync"

// Kind discriminates timeline events. The values are the JSON "k"
// field of the record format and are part of the artifact schema.
type Kind string

// Event kinds. Inject/Arrive/Depart/Eject trace one packet attempt's
// head flit through the network; Retx/Lost terminate an attempt on the
// fault path; Link and Compute are track-occupancy intervals.
const (
	KindInject  Kind = "inject"  // head flit entered the source router's local port
	KindArrive  Kind = "arrive"  // head flit buffered at a downstream router input VC
	KindDepart  Kind = "depart"  // head flit won switch allocation and left the router
	KindEject   Kind = "eject"   // tail flit ejected intact at the destination
	KindRetx    Kind = "retx"    // corrupt tail detected; retransmission scheduled
	KindLost    Kind = "lost"    // packet abandoned (budget exhausted, dead endpoint…)
	KindLink    Kind = "link"    // one contiguous busy interval of a mesh link
	KindCompute Kind = "compute" // one core's compute span of a layer
)

// Event is one timeline entry. Field meaning varies by Kind (see the
// recording methods); unused fields stay zero and are omitted from
// JSON. Cycles are relative to the owning section's start.
type Event struct {
	Kind    Kind  `json:"k"`
	Cycle   int64 `json:"c"`            // primary cycle stamp
	End     int64 `json:"e,omitempty"`  // interval end (Link, Compute), exclusive
	Queued  int64 `json:"q,omitempty"`  // Inject: NI-queue entry; Retx: next inject; Depart: VC-alloc cycle
	Packet  int32 `json:"p,omitempty"`  // packet id within the section (-1: never injected)
	Attempt int32 `json:"a,omitempty"`  // retransmission attempt, 0 = first try
	Node    int32 `json:"n,omitempty"`  // router / core / link-source mesh node
	Port    int32 `json:"d,omitempty"`  // port or link direction: 0 local, 1..4 E/W/N/S
	VC      int32 `json:"v,omitempty"`  // virtual channel (Arrive)
	Plane   int32 `json:"pl,omitempty"` // physical-channel plane
	Src     int32 `json:"s,omitempty"`  // packet source node (Inject, Lost)
	Dst     int32 `json:"t,omitempty"`  // packet destination node (Inject, Lost)
	Flits   int32 `json:"f,omitempty"`  // packet length in flits (Inject)
}

// DirNames names the Port values of Link/Arrive/Depart events.
var DirNames = [5]string{"local", "east", "west", "north", "south"}

// Platform carries the simulated-hardware parameters an analyzer needs
// to decompose latencies (router pipeline depth, mesh shape). The
// first writer wins; it is serialized into the record header.
type Platform struct {
	MeshW       int `json:"mesh_w,omitempty"`
	MeshH       int `json:"mesh_h,omitempty"`
	Stages      int `json:"stages,omitempty"` // router pipeline depth in cycles
	Planes      int `json:"planes,omitempty"`
	VCs         int `json:"vcs,omitempty"`
	FlitBytes   int `json:"flit_bytes,omitempty"`
	PacketFlits int `json:"packet_flits,omitempty"`
}

// Sink collects a run's timeline. The zero value is not usable; use
// NewSink. A nil *Sink is the disabled tracer: every operation on it
// (and on the nil sections it hands out) is a no-op.
type Sink struct {
	mu       sync.Mutex
	sections []*Section
	platform Platform
	platSet  bool
}

// NewSink creates an empty timeline sink.
func NewSink() *Sink { return &Sink{} }

// SetPlatform records the simulated-hardware parameters once; later
// calls are ignored so pooled simulators can set it idempotently.
// No-op on nil.
func (t *Sink) SetPlatform(p Platform) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.platSet {
		t.platform = p
		t.platSet = true
	}
}

// Platform returns the recorded hardware parameters (zero on nil).
func (t *Sink) Platform() Platform {
	if t == nil {
		return Platform{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.platform
}

// Section registers the next section of the timeline — one layer
// transition, one burst — and returns its recorder. Sections render in
// registration order, so callers must register them from a single
// goroutine (internal/cmp registers all layer sections serially before
// the parallel layer loop); the returned *Section may then be filled
// from whatever worker owns the burst, single-threadedly. Returns nil
// on a nil sink.
func (t *Sink) Section(label string) *Section {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Section{Index: len(t.sections), Label: label}
	t.sections = append(t.sections, s)
	return s
}

// Sections returns the registered sections in registration order
// (nil on a nil sink). The slice is a copy; the sections are shared.
func (t *Sink) Sections() []*Section {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Section(nil), t.sections...)
}

// Events returns the total event count across sections (0 on nil).
func (t *Sink) Events() int {
	n := 0
	for _, s := range t.Sections() {
		n += len(s.Events)
	}
	return n
}

// resolveStarts assigns a global start cycle to every section that was
// not given one explicitly (SetStart): sections stack end to end, each
// beginning where the previous one's span (comm + compute tail) ends.
// Deterministic: depends only on registration order and recorded
// cycles. Called by the renderers under the sink lock.
func (t *Sink) resolveStarts() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cursor int64
	for _, s := range t.sections {
		if !s.hasStart {
			s.Start = cursor
			s.hasStart = true
		}
		end := s.Start + s.span()
		if end > cursor {
			cursor = end
		}
	}
}

// Section is one contiguous segment of the timeline — the burst of a
// single layer transition plus that layer's compute spans. It is
// filled by exactly one goroutine at a time; methods on it take no
// locks. All cycle stamps are relative to Start.
type Section struct {
	Index int    // registration order; render order
	Label string // layer or burst name
	Start int64  // global offset in cycles (assigned by owner or resolveStarts)
	Comm  int64  // burst drain cycles (the layer's blocking communication)

	// Stage and Batch place the section in a pipelined execution
	// (internal/cmp.RunPipeline): which pipeline stage ran it, for which
	// in-flight inference. Both stay 0 for layer-synchronous runs, so
	// they vanish from records (omitempty) and depth-1 pipelined records
	// remain byte-identical to barrier ones. When any section carries a
	// nonzero stage or batch the Perfetto renderer adds a stage-track
	// process whose gaps are the pipeline bubbles.
	Stage int
	Batch int

	Events []Event

	hasStart bool
}

// span returns the section's extent in cycles: the burst drain plus
// whatever intervals (compute spans) reach past it.
func (s *Section) span() int64 {
	end := s.Comm
	for i := range s.Events {
		if e := &s.Events[i]; e.End > end {
			end = e.End
		} else if e.Cycle > end {
			end = e.Cycle
		}
	}
	return end
}

// SetStart pins the section's global start cycle (internal/cmp assigns
// cumulative layer offsets after its fold). No-op on nil.
func (s *Section) SetStart(cycle int64) {
	if s == nil {
		return
	}
	s.Start = cycle
	s.hasStart = true
}

// SetStage tags the section with its pipeline coordinates. No-op on
// nil.
func (s *Section) SetStage(stage, batch int) {
	if s == nil {
		return
	}
	s.Stage = stage
	s.Batch = batch
}

// SetComm records the burst's drain time. No-op on nil.
func (s *Section) SetComm(cycles int64) {
	if s == nil {
		return
	}
	s.Comm = cycles
}

// Inject records packet pkt's head flit entering the source router at
// cycle; queued is the cycle the packet entered the NI queue (its
// injection timestamp, backoff-adjusted for retransmissions), so
// cycle−queued is the serialization wait at the source NI. No-op on
// nil.
func (s *Section) Inject(cycle, queued int64, pkt, attempt, src, dst, flits int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindInject, Cycle: cycle, Queued: queued,
		Packet: int32(pkt), Attempt: int32(attempt),
		Node: int32(src), Src: int32(src), Dst: int32(dst), Flits: int32(flits)})
}

// Arrive records packet pkt's head flit buffering into input port/vc
// of router node at cycle. No-op on nil.
func (s *Section) Arrive(cycle int64, pkt, attempt, node, port, vc, plane int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindArrive, Cycle: cycle,
		Packet: int32(pkt), Attempt: int32(attempt),
		Node: int32(node), Port: int32(port), VC: int32(vc), Plane: int32(plane)})
}

// Depart records packet pkt's head flit winning switch allocation at
// router node and leaving through port at cycle; vcAt is the cycle the
// downstream VC was allocated, so vcAt−arrive−(Stages−1) is the
// VC-allocation stall and cycle−vcAt the switch stall. Port 0 (local)
// is the start of ejection at the destination. No-op on nil.
func (s *Section) Depart(cycle, vcAt int64, pkt, attempt, node, port, plane int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindDepart, Cycle: cycle, Queued: vcAt,
		Packet: int32(pkt), Attempt: int32(attempt),
		Node: int32(node), Port: int32(port), Plane: int32(plane)})
}

// Eject records packet pkt's tail flit ejecting intact at node; cycle
// is the eject-complete cycle (inject-to-cycle is the packet latency
// the simulator reports). No-op on nil.
func (s *Section) Eject(cycle int64, pkt, attempt, node int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindEject, Cycle: cycle,
		Packet: int32(pkt), Attempt: int32(attempt), Node: int32(node)})
}

// Retx records a corrupt tail ejection of packet pkt at node: attempt
// is the *new* attempt number and next the cycle the retransmission
// re-enters the source NI queue (backoff included). No-op on nil.
func (s *Section) Retx(cycle, next int64, pkt, attempt, node int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindRetx, Cycle: cycle, Queued: next,
		Packet: int32(pkt), Attempt: int32(attempt), Node: int32(node)})
}

// Lost records the terminal loss of the src→dst transfer at cycle:
// retry budget exhausted (pkt ≥ 0) or never injected because the
// endpoints are disconnected or dead (pkt = −1). No-op on nil.
func (s *Section) Lost(cycle int64, pkt, attempt, node, src, dst int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindLost, Cycle: cycle,
		Packet: int32(pkt), Attempt: int32(attempt),
		Node: int32(node), Src: int32(src), Dst: int32(dst)})
}

// LinkBusy records one contiguous busy interval [start, end) of the
// link leaving node through direction dir (1..4) on the given plane.
// Intervals are exact: the NoC simulator merges cycle-adjacent flit
// traversals and flushes each interval when the link goes idle. No-op
// on nil.
func (s *Section) LinkBusy(start, end int64, plane, node, dir int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindLink, Cycle: start, End: end,
		Node: int32(node), Port: int32(dir), Plane: int32(plane)})
}

// Compute records core's compute span [start, end) for the section's
// layer. No-op on nil.
func (s *Section) Compute(start, end int64, core int) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{Kind: KindCompute, Cycle: start, End: end, Node: int32(core)})
}
