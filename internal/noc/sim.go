package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"learn2scale/internal/fault"
	"learn2scale/internal/obs"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// sortInjQueue orders one node's injection FIFO by (time, packet id)
// with an in-place insertion sort: per-node queues are short, already
// id-ordered from construction, and sort.SliceStable's closure would
// be RunBurst's only steady-state heap allocation. The sort is stable,
// which is what makes same-(time, id) entries of different session
// groups keep their injection-call order.
func sortInjQueue(q []injEntry) {
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i
		for j > 0 && (q[j-1].time > e.time ||
			(q[j-1].time == e.time && q[j-1].p.id > e.p.id)) {
			q[j] = q[j-1]
			j--
		}
		q[j] = e
	}
}

// LatencyBuckets are the upper bounds (in cycles) of the packet-
// latency histogram recorded when a simulator has an obs registry
// attached. Latencies are simulated cycles, so the histogram is
// deterministic for a given message burst.
var LatencyBuckets = []int64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// packet is one wormhole packet in flight.
type packet struct {
	id         int   // id within its burst group (timeline / arbitration tiebreak)
	uid        int   // simulator-unique id (VC ownership; groups reuse local ids)
	group      int32 // session group the packet belongs to
	src, dst   int
	nflits     int
	injectTime int64
	ejected    int

	// Fault state: which retransmission attempt this traversal is
	// (0 = first try), whether any flit was corrupted in flight, and
	// whether the packet has taken a "down" hop under up*/down* routing
	// (after which up hops are forbidden — the deadlock-freedom
	// invariant).
	attempt int
	corrupt bool
	down    bool
}

// flit is one flow-control unit. seq 0 is the head; seq nflits-1 the tail.
type flit struct {
	pkt     *packet
	seq     int
	readyAt int64 // earliest cycle the flit may traverse the switch
}

// vcState is one virtual-channel buffer of a router input port,
// implemented as a fixed ring of BufDepth slots cut from its plane's
// flit slab.
type vcState struct {
	buf     []flit
	head, n int
	// ready is the front flit's readyAt while n > 0, so the request
	// pass of switch allocation reads no flit.
	ready   int64
	owner   int // unique id (packet.uid) occupying this buffer, -1 if free
	outPort int // assigned output port for the resident packet, -1 if none
	outVC   int // assigned downstream VC

	// route is the output port the resident packet takes from this
	// router, and routeDown whether that hop is an up*/down* "down"
	// move. Both are set when the head flit is buffered and route is
	// -1 once the tail has left: a head's route is a pure function of
	// (router, packet) until the head is granted, and from that grant
	// on route equals outPort.
	route     int
	routeDown bool

	// vcAllocAt is the cycle the resident head flit was routed and won
	// its downstream VC; it feeds the Depart event's VC-stall/switch-
	// stall split and never influences simulation behaviour.
	vcAllocAt int64
}

func (v *vcState) front() *flit { return &v.buf[v.head] }

// router is one mesh router of a single physical-channel plane.
type router struct {
	// vc holds the input VCs by slot ip·VCs+v, cut from the plane's
	// VC slab.
	vc []vcState
	// busy has bit slot set while that input VC holds a flit.
	busy uint64
	// credits[op][vc]: free buffer slots at the downstream input VC
	// reached through output port op. The local output has no credits;
	// ejection is limited to one flit per cycle by arbitration itself.
	credits [numPorts][maxVCs]int32
	rrPtr   [numPorts]int // round-robin arbitration pointer per output
}

// clear restores r to its initial state: every VC empty and free,
// every credit at depth, every arbitration pointer at slot 0.
func (r *router) clear(depth int) {
	for i := range r.vc {
		r.vc[i] = vcState{buf: r.vc[i].buf, owner: -1, outPort: -1, route: -1}
	}
	r.busy = 0
	for op := range r.credits {
		for v := range r.credits[op] {
			r.credits[op][v] = int32(depth)
		}
	}
	r.rrPtr = [numPorts]int{}
}

// push appends f to input VC slot.
func (r *router) push(slot int, f flit) {
	vc := &r.vc[slot]
	depth := len(vc.buf)
	if vc.n == depth {
		panic("noc: VC buffer overflow (credit protocol violated)")
	}
	i := vc.head + vc.n
	if i >= depth {
		i -= depth
	}
	vc.buf[i] = f
	if vc.n == 0 {
		vc.ready = f.readyAt
		r.busy |= 1 << uint(slot)
	}
	vc.n++
}

// pop removes and returns the front flit of input VC slot.
func (r *router) pop(slot int) flit {
	vc := &r.vc[slot]
	f := vc.buf[vc.head]
	if vc.head++; vc.head == len(vc.buf) {
		vc.head = 0
	}
	if vc.n--; vc.n == 0 {
		r.busy &^= 1 << uint(slot)
	} else {
		vc.ready = vc.buf[vc.head].readyAt
	}
	return f
}

// tlInterval is one open link busy interval [start, end) being merged;
// empty when end == start.
type tlInterval struct {
	start, end int64
}

// arrival is a flit committed to move into a router buffer at the end
// of the current cycle.
type arrival struct {
	node, slot int // router and input slot ip·VCs+v the flit enters
	f          flit
}

// injEntry is a packet waiting in a node's network interface.
type injEntry struct {
	p    *packet
	time int64
}

// plane is one physical channel: a full set of routers plus per-node
// injection queues.
type plane struct {
	routers   []router
	nodeQueue [][]injEntry // per-node FIFO of packets to inject
	nodeHead  []int        // index of the head packet per node
	injSeq    []int        // next flit of the head packet
	injVC     []int        // local VC claimed by the head packet (-1 none)
	pending   []arrival    // reused arrival scratch
	occ       []int64      // flits currently buffered per router
	buffered  int64        // total flits buffered across the plane (Σ occ)
}

// groupState is the per-burst-group accounting of a session (see
// session.go): each group injected into the shared clock keeps its own
// packet-id space, fault salt, timeline section, result counters and
// lost-transfer list.
type groupState struct {
	sec  *timeline.Section
	base int64 // absolute cycle the group's section starts; events are relative to it
	salt int64 // fault salt of this group's packets
	// arena backs the group's packets; the injection queues hold
	// pointers into it, so it is sized once per Inject and never grows
	// while the group is live. It comes from the simulator's spare
	// arenas and returns there when the group resolves.
	arena []packet
	// links is the per-(plane, node, direction) open link busy-interval
	// scratch of this group, with stamps relative to base; only read
	// while sec is non-nil.
	links []tlInterval

	res       Result
	lost      []LostTransfer
	remaining int64 // packets not yet terminally resolved
	done      bool
	endCycle  int64 // absolute cycle the group resolved at (valid once done)
}

// Simulator runs message bursts over the configured NoC.
type Simulator struct {
	cfg    Config
	planes []plane

	// Lookup tables built once by New. nbr[node][op] is the node
	// reached through output port op, -1 for Local and off-mesh
	// ports; xy[cur·Nodes+dst] is the XY routing port from cur toward
	// dst. slotPort and slotVC split a router input slot ip·VCs+v, and
	// portSlots[ip] has the bits of port ip's slots.
	nbr       [][numPorts]int
	xy        []int8
	slotPort  [maxSlots]uint8
	slotVC    [maxSlots]uint8
	portSlots [numPorts]uint64
	nSlots    int // numPorts·VCs
	// linkLoad[node][op-1] counts flit traversals of the link leaving
	// node through output port op (E/W/N/S), summed over planes, for
	// the most recent session (RunBurst is a one-group session).
	linkLoad [][4]int64

	// loopIters counts the drain-loop iterations of the most recent
	// session; with idle-cycle fast-forward it can be far below
	// Result.Cycles on time-sparse bursts. noFastForward disables the
	// jump so tests can compare against dense cycle-by-cycle ticking.
	loopIters     int64
	noFastForward bool

	// denseArbitration selects arbitrateDense, the scan every output
	// makes over all input VCs of every router, in place of the
	// request-mask allocator; tests compare the two.
	denseArbitration bool

	// Session state. groups[i] is group i of the current session; the
	// slots past len keep their link scratch across Begin. spare holds
	// the packet arenas of resolved groups for later Injects to reuse:
	// a resolved group's packets are never read again, so a session
	// holds only as many arenas as it has groups live at once, and
	// repeated bursts stay off the heap. gen counts Begin calls and
	// invalidates every earlier Session.
	groups   []groupState
	spare    [][]packet
	gen      uint64
	live     int     // groups injected and not yet resolved
	resolved []int32 // groups resolved but not yet reported by Next
	uidNext  int     // next simulator-unique packet id

	// tlAuto numbers the "burstNNN" sections RunBurst auto-registers on
	// cfg.Timeline.
	tlAuto int

	// Fault-injection state, all nil/zero when cfg.Fault is inactive so
	// the fault-free hot path is untouched (and bit-identical to the
	// pre-fault simulator).
	faultOn bool
	budget  int           // retransmissions allowed per packet
	routes  *fault.Routes // up*/down* tables; nil without structural faults
	flaky   [][4]bool     // per-(node, dir) flit-drop eligibility; nil = all links
	slow    [][4]bool     // per-(node, dir) extra-latency links; nil = none

	// Metric handles resolved once from cfg.Obs (nil when disabled;
	// every obs operation on nil is a no-op). The fault counters are
	// registered only for active fault configs so fault-free flight
	// records keep their exact pre-fault metric set.
	latHist  *obs.Histogram // per-packet eject−inject cycles
	occGauge *obs.Gauge     // router queue-occupancy high-water
	packets  *obs.Counter
	flits    *obs.Counter
	hopsC    *obs.Counter // flit-hops across inter-router links
	retransC *obs.Counter
	lostC    *obs.Counter
	dropC    *obs.Counter
}

// New creates a simulator for cfg.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, nbr: neighborTable(cfg.Mesh), xy: xyTable(cfg.Mesh), nSlots: numPorts * cfg.VCs}
	for slot := 0; slot < s.nSlots; slot++ {
		ip, v := slot/cfg.VCs, slot%cfg.VCs
		s.slotPort[slot], s.slotVC[slot] = uint8(ip), uint8(v)
		s.portSlots[ip] |= 1 << uint(slot)
	}
	cfg.Timeline.SetPlatform(cfg.TimelinePlatform())
	if r := cfg.Obs; r != nil {
		s.latHist = r.Histogram("noc.packet_latency_cycles", obs.Stable, LatencyBuckets)
		s.occGauge = r.Gauge("noc.router_occupancy_high_water", obs.Stable)
		s.packets = r.Counter("noc.packets", obs.Stable)
		s.flits = r.Counter("noc.flits", obs.Stable)
		s.hopsC = r.Counter("noc.link_traversals", obs.Stable)
	}
	if f := cfg.Fault; f.Active() {
		s.faultOn = true
		s.budget = f.Budget()
		if f.Structural() {
			rt, err := fault.NewRoutes(cfg.Mesh, f)
			if err != nil {
				return nil, err
			}
			s.routes = rt
		}
		if len(f.FlakyLinks) > 0 {
			s.flaky = dirLinkSet(s.nbr, f.FlakyLinks)
		}
		if len(f.SlowLinks) > 0 && f.SlowExtraCycles > 0 {
			s.slow = dirLinkSet(s.nbr, f.SlowLinks)
		}
		if r := cfg.Obs; r != nil {
			s.retransC = r.Counter("noc.retransmits", obs.Stable)
			s.lostC = r.Counter("noc.lost_packets", obs.Stable)
			s.dropC = r.Counter("noc.dropped_flits", obs.Stable)
			r.Gauge("noc.retry_budget", obs.Stable).Set(float64(s.budget))
		}
	}
	return s, nil
}

// dirLinkSet expands an undirected link list into a per-(node, output
// direction) lookup table covering both directions of each link.
func dirLinkSet(nbr [][numPorts]int, links []fault.Link) [][4]bool {
	in := make(map[fault.Link]bool, len(links))
	for _, l := range links {
		in[l] = true
	}
	set := make([][4]bool, len(nbr))
	for id := range set {
		for op := PortEast; op <= PortSouth; op++ {
			if nb := nbr[id][op]; nb >= 0 && in[fault.LinkBetween(id, nb)] {
				set[id][op-1] = true
			}
		}
	}
	return set
}

// neighborTable returns, for every node of m and output port, the node
// that port leads to, or -1 for the Local port and off-mesh ports.
func neighborTable(m topology.Mesh) [][numPorts]int {
	t := make([][numPorts]int, m.Nodes())
	for id := range t {
		c := m.Coord(id)
		t[id] = [numPorts]int{-1, -1, -1, -1, -1}
		if c.X+1 < m.W {
			t[id][PortEast] = id + 1
		}
		if c.X > 0 {
			t[id][PortWest] = id - 1
		}
		if c.Y > 0 {
			t[id][PortNorth] = id - m.W
		}
		if c.Y+1 < m.H {
			t[id][PortSouth] = id + m.W
		}
	}
	return t
}

// xyTable returns the dimension-ordered (X first) output port from
// every node of m toward every node, indexed cur·Nodes+dst.
func xyTable(m topology.Mesh) []int8 {
	n := m.Nodes()
	t := make([]int8, n*n)
	for cur := 0; cur < n; cur++ {
		cc := m.Coord(cur)
		for dst := 0; dst < n; dst++ {
			cd := m.Coord(dst)
			op := PortLocal
			switch {
			case cc.X < cd.X:
				op = PortEast
			case cc.X > cd.X:
				op = PortWest
			case cc.Y < cd.Y:
				op = PortSouth
			case cc.Y > cd.Y:
				op = PortNorth
			}
			t[cur*n+dst] = int8(op)
		}
	}
	return t
}

// MustNew is New that panics on config error (for tests and internal use).
func MustNew(cfg Config) *Simulator {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Simulator) newPlane() plane {
	n := s.cfg.Mesh.Nodes()
	pl := plane{
		routers:   make([]router, n),
		nodeQueue: make([][]injEntry, n),
		nodeHead:  make([]int, n),
		injSeq:    make([]int, n),
		injVC:     make([]int, n),
		occ:       make([]int64, n),
	}
	depth := s.cfg.BufDepth
	vcs := make([]vcState, n*s.nSlots)
	flits := make([]flit, len(vcs)*depth)
	for i := range vcs {
		vcs[i].buf = flits[i*depth : (i+1)*depth : (i+1)*depth]
	}
	for i := range pl.routers {
		r := &pl.routers[i]
		r.vc = vcs[i*s.nSlots : (i+1)*s.nSlots : (i+1)*s.nSlots]
		r.clear(depth)
		pl.injVC[i] = -1
	}
	return pl
}

// reset restores the simulator's network state for a fresh session,
// reusing the plane, router, and link-load storage of earlier sessions
// so repeated RunBurst calls stay off the heap.
func (s *Simulator) reset() {
	s.loopIters = 0
	s.uidNext = 0
	s.live = 0
	for i := range s.groups {
		s.releaseArena(&s.groups[i]) // groups an abandoned session left live
	}
	s.groups = s.groups[:0]
	s.resolved = s.resolved[:0]
	if s.planes == nil {
		s.planes = make([]plane, s.cfg.Planes)
		for p := range s.planes {
			s.planes[p] = s.newPlane()
		}
		s.linkLoad = make([][4]int64, s.cfg.Mesh.Nodes())
		return
	}
	for p := range s.planes {
		pl := &s.planes[p]
		for i := range pl.routers {
			pl.routers[i].clear(s.cfg.BufDepth)
			pl.nodeQueue[i] = pl.nodeQueue[i][:0]
			pl.nodeHead[i] = 0
			pl.injSeq[i] = 0
			pl.injVC[i] = -1
			pl.occ[i] = 0
		}
		pl.buffered = 0
		pl.pending = pl.pending[:0]
	}
	clear(s.linkLoad)
}

// fastForwardTarget reports whether the network is completely idle at
// cycle now — no flit buffered on any plane and no packet eligible to
// inject — and, if so, the cycle of the earliest pending injection.
// Between cycles every in-flight flit sits in some router buffer
// (arrivals commit within the cycle that launched them), so
// buffered == 0 on all planes means the only future events are
// injections still gated on their timestamps.
func (s *Simulator) fastForwardTarget(now int64) (int64, bool) {
	for p := range s.planes {
		if s.planes[p].buffered != 0 {
			return 0, false
		}
	}
	next := int64(-1)
	for p := range s.planes {
		pl := &s.planes[p]
		for node, q := range pl.nodeQueue {
			h := pl.nodeHead[node]
			if h >= len(q) {
				continue
			}
			t := q[h].time
			if t <= now {
				return 0, false
			}
			if next == -1 || t < next {
				next = t
			}
		}
	}
	return next, next > now
}

// LoopIters returns how many drain-loop iterations the most recent
// session (or RunBurst) executed. With idle-cycle fast-forward this can
// be far smaller than Result.Cycles on time-sparse bursts; it measures
// the simulator's own cost, not a network property, so it lives
// outside Result.
func (s *Simulator) LoopIters() int64 { return s.loopIters }

// opposite maps an output port to the input port it feeds downstream.
var opposite = [numPorts]int{-1, PortWest, PortEast, PortSouth, PortNorth}

// routePort returns the output port a packet at node cur takes, and
// whether that hop is a "down" move under up*/down* routing. Without
// structural faults the routing function is exactly the fault-free XY
// one; the switch is all-or-nothing because mixing two individually
// deadlock-free routing functions can deadlock.
func (s *Simulator) routePort(cur int, p *packet) (op int, isDown bool) {
	if s.routes == nil {
		return int(s.xy[cur*len(s.nbr)+p.dst]), false
	}
	if cur == p.dst {
		return PortLocal, false
	}
	dir, down, ok := s.routes.NextDir(cur, p.dst, p.down)
	if !ok {
		panic("noc: in-flight packet lost reachability (route table inconsistent)")
	}
	return int(dir) + 1, down
}

// linkScratchSize is the length of a group's per-(plane, node,
// direction) link-interval scratch.
func (s *Simulator) linkScratchSize() int {
	return s.cfg.Planes * s.cfg.Mesh.Nodes() * 4
}

// linkBusy merges the 1-cycle link traversal at now into the open busy
// interval of link (plane pi, node, output port op) of group g,
// flushing the previous interval when a gap appears. Caller guarantees
// g.sec != nil. Stamps are relative to the group's base.
func (s *Simulator) linkBusy(g *groupState, pi, node, op int, now int64) {
	rel := now - g.base
	iv := &g.links[(pi*s.cfg.Mesh.Nodes()+node)*4+op-1]
	if iv.end == rel && iv.end > iv.start {
		iv.end = rel + 1
		return
	}
	if iv.end > iv.start {
		g.sec.LinkBusy(iv.start, iv.end, pi, node, op)
	}
	iv.start, iv.end = rel, rel+1
}

// flushGroupTimeline flushes the group's open link intervals (in
// deterministic index order) and stamps its drain time.
func (s *Simulator) flushGroupTimeline(g *groupState) {
	if g.sec == nil {
		return
	}
	nodes := s.cfg.Mesh.Nodes()
	for i := range g.links {
		if iv := &g.links[i]; iv.end > iv.start {
			g.sec.LinkBusy(iv.start, iv.end, i/(nodes*4), i/4%nodes, i%4+1)
		}
	}
	g.sec.SetComm(g.res.Cycles)
}

// flushGroupObs folds the group's counters into the obs registry.
func (s *Simulator) flushGroupObs(g *groupState) {
	s.packets.Add(g.res.Packets)
	s.flits.Add(g.res.Flits)
	s.hopsC.Add(g.res.LinkTraversals)
	s.occGauge.SetMax(float64(g.res.MaxRouterOccupancy))
	s.retransC.Add(g.res.Retransmits)
	s.lostC.Add(g.res.LostPackets)
	s.dropC.Add(g.res.DroppedFlits)
}

// resolveGroup marks group gi fully drained at absolute cycle
// end and queues it for Session.Next. Timeline and obs flush here — the
// group's flits are all terminal, so its event stream is complete.
func (s *Simulator) resolveGroup(gi int32, end int64) {
	g := &s.groups[gi]
	g.done = true
	g.endCycle = end
	g.res.Cycles = end - g.base
	s.flushGroupTimeline(g)
	s.flushGroupObs(g)
	s.releaseArena(g)
	s.resolved = append(s.resolved, gi)
	if g.res.Packets > 0 {
		s.live--
	}
}

// takeArena returns storage for need packets: the smallest spare
// arena that fits, else a new one.
func (s *Simulator) takeArena(need int) []packet {
	best := -1
	for i, a := range s.spare {
		if cap(a) >= need && (best < 0 || cap(a) < cap(s.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]packet, need)
	}
	a := s.spare[best]
	last := len(s.spare) - 1
	s.spare[best], s.spare[last] = s.spare[last], nil
	s.spare = s.spare[:last]
	return a[:need]
}

// releaseArena returns g's packet arena to the spares.
func (s *Simulator) releaseArena(g *groupState) {
	if cap(g.arena) > 0 {
		s.spare = append(s.spare, g.arena)
	}
	g.arena = nil
}

// packetResolved retires one packet of group gi at cycle now; the
// group resolves the moment its last packet does.
func (s *Simulator) packetResolved(gi int32, now int64) {
	g := &s.groups[gi]
	g.remaining--
	if g.remaining == 0 {
		s.resolveGroup(gi, now+1)
	}
}

// dedupLost returns a sorted, deduplicated copy of l (nil when empty).
func dedupLost(l []LostTransfer) []LostTransfer {
	if len(l) == 0 {
		return nil
	}
	out := append([]LostTransfer(nil), l...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	w := 1
	for _, t := range out[1:] {
		if t != out[w-1] {
			out[w] = t
			w++
		}
	}
	return out[:w]
}

// loseMessage records an undeliverable message (endpoints disconnected
// by structural faults) in group g without ever injecting it.
func (s *Simulator) loseMessage(g *groupState, m Message) {
	g.res.LostPackets += int64(PacketsForBytes(s.cfg, m.Bytes))
	g.res.LostFlits += int64(flitsForBytes(s.cfg, m.Bytes))
	g.lost = append(g.lost, LostTransfer{Src: m.Src, Dst: m.Dst})
	g.sec.Lost(0, -1, 0, m.Src, m.Src, m.Dst)
}

// resolveCorrupt handles a packet whose tail ejected with a corrupt
// end-to-end check: schedule a retransmission if budget remains,
// otherwise declare the packet — and its transfer — lost. Returns true
// when the packet is terminally resolved, false when it goes around
// again.
func (s *Simulator) resolveCorrupt(pl *plane, p *packet, now int64, g *groupState) bool {
	if p.attempt < s.budget {
		p.attempt++
		p.ejected = 0
		p.corrupt = false
		p.down = false
		p.injectTime = now + 1 + s.cfg.Fault.Backoff(p.attempt)
		g.res.Retransmits++
		g.res.Flits += int64(p.nflits)
		q := append(pl.nodeQueue[p.src], injEntry{p, p.injectTime})
		pl.nodeQueue[p.src] = q
		// Re-sort only the unconsumed tail: the backoff time is in the
		// future, so the entry can never displace a head packet that is
		// mid-injection.
		sortInjQueue(q[pl.nodeHead[p.src]:])
		g.sec.Retx(now+1-g.base, p.injectTime-g.base, p.id, p.attempt, p.dst)
		return false
	}
	g.res.LostPackets++
	g.res.LostFlits += int64(p.nflits)
	g.lost = append(g.lost, LostTransfer{Src: p.src, Dst: p.dst})
	g.sec.Lost(now+1-g.base, p.id, p.attempt, p.dst, p.src, p.dst)
	return true
}

// buildGroup validates msgs and appends their packets to group gi,
// entering them into the per-node injection queues. Packet ids are
// group-local (restarting at 0, so a group run alone matches a fresh
// simulator's); uids are simulator-unique. at shifts every message's
// Time stamp. g.arena must hold exactly the packets counted by
// countPackets.
func (s *Simulator) buildGroup(gi int32, msgs []Message, at int64) {
	g := &s.groups[gi]
	payload := s.cfg.PayloadPerPacket()
	id := 0
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes <= 0 {
			continue
		}
		if s.routes != nil && !s.routes.Reachable(m.Src, m.Dst) {
			s.loseMessage(g, m)
			continue
		}
		remaining := m.Bytes
		for remaining > 0 {
			chunk := remaining
			if chunk > payload {
				chunk = payload
			}
			nf := 1 + (chunk+s.cfg.FlitBytes-1)/s.cfg.FlitBytes
			pk := &g.arena[id]
			*pk = packet{id: id, uid: s.uidNext, group: gi,
				src: m.Src, dst: m.Dst, nflits: nf, injectTime: at + m.Time}
			s.uidNext++
			pl := &s.planes[id%s.cfg.Planes]
			pl.nodeQueue[m.Src] = append(pl.nodeQueue[m.Src], injEntry{pk, pk.injectTime})
			id++
			remaining -= chunk
			g.res.Packets++
			g.res.Flits += int64(nf)
		}
	}
	g.remaining = g.res.Packets
}

// countPackets validates msgs against the mesh and returns how many
// packets they occupy (unreachable and no-traffic messages excluded).
func (s *Simulator) countPackets(msgs []Message) (int, error) {
	need := 0
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes <= 0 {
			continue
		}
		if m.Src < 0 || m.Src >= s.cfg.Mesh.Nodes() || m.Dst < 0 || m.Dst >= s.cfg.Mesh.Nodes() {
			return 0, fmt.Errorf("noc: message %+v outside %dx%d mesh", m, s.cfg.Mesh.W, s.cfg.Mesh.H)
		}
		if s.routes != nil && !s.routes.Reachable(m.Src, m.Dst) {
			continue // recorded as lost in the build pass
		}
		need += PacketsForBytes(s.cfg, m.Bytes)
	}
	return need, nil
}

// stepPlane advances one plane (index pi) by one cycle. Terminal packet
// events (intact ejection, loss) retire packets from their group via
// packetResolved.
func (s *Simulator) stepPlane(pl *plane, pi int, now int64) {
	pending := pl.pending[:0]

	// Switch allocation and traversal: one grant per output port, at
	// most one flit per input port. A router with no buffered flit has
	// nothing to arbitrate; arrivals commit after this phase, so none
	// can appear in it mid-cycle.
	for rid := range pl.routers {
		switch {
		case s.denseArbitration:
			pending = s.arbitrateDense(pl, pi, rid, now, pending)
		case pl.occ[rid] != 0:
			pending = s.arbitrate(pl, pi, rid, now, pending)
		}
	}

	// Injection: one flit per node per cycle from the NI into the
	// local input port, whose slots are the local VCs.
	for node := range pl.nodeQueue {
		h := pl.nodeHead[node]
		if h >= len(pl.nodeQueue[node]) {
			continue
		}
		e := pl.nodeQueue[node][h]
		if e.time > now {
			continue
		}
		if pl.injVC[node] == -1 {
			v := s.allocVC(pl, node, PortLocal, e.p.uid)
			if v == -1 {
				continue
			}
			pl.injVC[node] = v
			pl.injSeq[node] = 0
		}
		v := pl.injVC[node]
		if pl.routers[node].vc[v].n >= s.cfg.BufDepth {
			continue
		}
		g := &s.groups[e.p.group]
		if g.sec != nil && pl.injSeq[node] == 0 {
			g.sec.Inject(now-g.base, e.p.injectTime-g.base, e.p.id, e.p.attempt, e.p.src, e.p.dst, e.p.nflits)
		}
		s.bufferFlit(pl, g, node, v, flit{pkt: e.p, seq: pl.injSeq[node], readyAt: now + int64(s.cfg.Stages-1)})
		pl.injSeq[node]++
		if pl.injSeq[node] == e.p.nflits {
			pl.nodeHead[node]++
			pl.injVC[node] = -1
			pl.injSeq[node] = 0
		}
	}

	// Commit link arrivals.
	for _, a := range pending {
		if pl.routers[a.node].vc[a.slot].owner != a.f.pkt.uid {
			panic("noc: flit arrived at VC owned by another packet")
		}
		g := &s.groups[a.f.pkt.group]
		if g.sec != nil && a.f.seq == 0 {
			g.sec.Arrive(now+1-g.base, a.f.pkt.id, a.f.pkt.attempt, a.node,
				int(s.slotPort[a.slot]), int(s.slotVC[a.slot]), pi)
		}
		s.bufferFlit(pl, g, a.node, a.slot, a.f)
	}
	pl.pending = pending[:0]
}

// bufferFlit writes f into input VC slot of router node, on behalf of
// f's group g. A head flit is routed here, once: its output port and
// "down" flag stay cached on the VC until its tail leaves.
func (s *Simulator) bufferFlit(pl *plane, g *groupState, node, slot int, f flit) {
	r := &pl.routers[node]
	if f.seq == 0 {
		vc := &r.vc[slot]
		vc.route, vc.routeDown = s.routePort(node, f.pkt)
	}
	r.push(slot, f)
	pl.occ[node]++
	pl.buffered++
	if pl.occ[node] > g.res.MaxRouterOccupancy {
		g.res.MaxRouterOccupancy = pl.occ[node]
	}
	g.res.BufferWrites++
}

// arbitrate runs switch allocation for router rid. Every input VC
// whose front flit is ready requests exactly one output — the route
// cached when its packet's head was buffered — so one pass over the
// router's non-empty VCs (the busy mask) fills a per-output request
// mask over slots ip·VCs+v, and each output then visits only its
// requesters in round-robin order from rrPtr. This grants exactly what
// the dense scan (arbitrateDense) grants, in the same order: during
// switch allocation a VC's front flit changes only when popped, which
// marks its input port used, and a head's route is a pure function of
// (router, packet) until that head is granted.
func (s *Simulator) arbitrate(pl *plane, pi, rid int, now int64, pending []arrival) []arrival {
	r := &pl.routers[rid]
	var req [numPorts]uint64
	var down uint64 // slots whose routed hop is an up*/down* "down" move
	for m := r.busy; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		vc := &r.vc[slot]
		if vc.ready > now {
			continue
		}
		bit := uint64(1) << uint(slot)
		req[vc.route] |= bit
		if vc.routeDown {
			down |= bit
		}
	}
	var used uint64 // slots of the input ports that already won an output
	for op := 0; op < numPorts; op++ {
		want := req[op] &^ used
		if want == 0 {
			continue
		}
		below := uint64(1)<<uint(r.rrPtr[op]) - 1
	scan:
		for _, m := range [2]uint64{want &^ below, want & below} {
			for ; m != 0; m &= m - 1 {
				slot := bits.TrailingZeros64(m)
				if !s.allocate(pl, rid, op, &r.vc[slot], down>>uint(slot)&1 != 0, now) {
					continue
				}
				used |= s.portSlots[s.slotPort[slot]]
				pending = s.grant(pl, pi, rid, slot, op, now, pending)
				break scan
			}
		}
	}
	return pending
}

// arbitrateDense is the reference switch allocator for arbitrate:
// every output scans all numPorts·VCs input VCs from its round-robin
// pointer, routing each unrouted head it visits. Only tests select it
// (denseArbitration), to hold arbitrate equal to it.
func (s *Simulator) arbitrateDense(pl *plane, pi, rid int, now int64, pending []arrival) []arrival {
	r := &pl.routers[rid]
	var usedIn [numPorts]bool
	nCand := numPorts * s.cfg.VCs
	for op := 0; op < numPorts; op++ {
		for k := 0; k < nCand; k++ {
			slot := (r.rrPtr[op] + k) % nCand
			ip := slot / s.cfg.VCs
			if usedIn[ip] {
				continue
			}
			vc := &r.vc[slot]
			if vc.n == 0 || vc.front().readyAt > now {
				continue
			}
			want, wantDown := vc.outPort, false
			if want == -1 {
				if vc.front().seq != 0 {
					panic("noc: body flit in unrouted VC")
				}
				want, wantDown = s.routePort(rid, vc.front().pkt)
			}
			if want != op || !s.allocate(pl, rid, op, vc, wantDown, now) {
				continue
			}
			usedIn[ip] = true
			pending = s.grant(pl, pi, rid, slot, op, now, pending)
			break
		}
	}
	return pending
}

// allocate runs route commitment and VC allocation for vc of router
// rid, whose ready front flit requests output op (wantDown: that hop is
// a "down" move), and reports whether the flit may cross the switch
// this cycle. An unrouted head claims a downstream VC here and keeps it
// even when the credit check then fails.
func (s *Simulator) allocate(pl *plane, rid, op int, vc *vcState, wantDown bool, now int64) bool {
	if vc.outPort == -1 {
		dvc := 0
		if op != PortLocal {
			if dvc = s.allocVC(pl, s.nbr[rid][op], opposite[op], vc.front().pkt.uid); dvc == -1 {
				return false // no free downstream VC yet
			}
		}
		vc.outPort, vc.outVC = op, dvc
		// The hop is committed; latch the phase change so the
		// downstream route computation sees it.
		if wantDown {
			vc.front().pkt.down = true
		}
		vc.vcAllocAt = now
	}
	return op == PortLocal || pl.routers[rid].credits[op][vc.outVC] != 0
}

// grant pops the front flit of input VC slot at router rid and sends
// it through output op: round-robin pointer advance, credit return
// upstream, then ejection (with retransmission of a corrupt tail) or
// link traversal (with slow-link delay and fault drop) into pending.
func (s *Simulator) grant(pl *plane, pi, rid, slot, op int, now int64, pending []arrival) []arrival {
	r := &pl.routers[rid]
	vc := &r.vc[slot]
	f := r.pop(slot)
	g := &s.groups[f.pkt.group]
	if g.sec != nil && f.seq == 0 {
		g.sec.Depart(now-g.base, vc.vcAllocAt-g.base, f.pkt.id, f.pkt.attempt, rid, op, pi)
	}
	pl.occ[rid]--
	pl.buffered--
	g.res.BufferReads++
	g.res.SwitchTraversals++
	if r.rrPtr[op] = slot + 1; r.rrPtr[op] == s.nSlots {
		r.rrPtr[op] = 0
	}

	// Credit return to the upstream hop (local injection reads buffer
	// occupancy directly instead).
	if ip := int(s.slotPort[slot]); ip != PortLocal {
		pl.routers[s.nbr[rid][ip]].credits[opposite[ip]][s.slotVC[slot]]++
	}
	isTail := f.seq == f.pkt.nflits-1
	outVC := vc.outVC
	if isTail {
		vc.outPort = -1
		vc.owner = -1
		vc.route = -1
	}
	if op == PortLocal {
		f.pkt.ejected++
		if isTail {
			if f.pkt.corrupt {
				if s.resolveCorrupt(pl, f.pkt, now, g) {
					s.packetResolved(f.pkt.group, now)
				}
			} else {
				g.sec.Eject(now+1-g.base, f.pkt.id, f.pkt.attempt, rid)
				lat := now + 1 - f.pkt.injectTime
				g.res.TotalPacketLatency += lat
				if lat > g.res.MaxPacketLatency {
					g.res.MaxPacketLatency = lat
				}
				g.res.EjectedPackets++
				s.latHist.Observe(lat)
				s.packetResolved(f.pkt.group, now)
			}
		}
		return pending
	}
	r.credits[op][outVC]--
	g.res.LinkTraversals++
	s.linkLoad[rid][op-1]++
	if g.sec != nil {
		s.linkBusy(g, pi, rid, op, now)
	}
	f.readyAt = now + 1 + int64(s.cfg.Stages-1)
	if s.faultOn {
		if s.slow != nil && s.slow[rid][op-1] {
			f.readyAt += int64(s.cfg.Fault.SlowExtraCycles)
		}
		fc := s.cfg.Fault
		if fc.DropProb > 0 && (s.flaky == nil || s.flaky[rid][op-1]) &&
			fc.DropFlit(g.salt, int64(f.pkt.id), f.pkt.attempt, rid*4+(op-1), f.seq) {
			f.pkt.corrupt = true
			g.res.DroppedFlits++
		}
	}
	return append(pending, arrival{s.nbr[rid][op], opposite[op]*s.cfg.VCs + outVC, f})
}

// allocVC finds (or confirms) a VC at node/port for the packet with
// unique id uid: if the packet already owns one it is returned;
// otherwise a free, empty VC is claimed. Returns -1 if none is
// available.
func (s *Simulator) allocVC(pl *plane, node, port, uid int) int {
	vcs := pl.routers[node].vc[port*s.cfg.VCs : (port+1)*s.cfg.VCs]
	for v := range vcs {
		if vcs[v].owner == uid {
			return v
		}
	}
	for v := range vcs {
		if vcs[v].owner == -1 && vcs[v].n == 0 {
			vcs[v].owner = uid
			return v
		}
	}
	return -1
}
