package noc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"learn2scale/internal/obs"
	"learn2scale/internal/topology"
)

func cfg4x4() Config { return DefaultConfig(topology.NewMesh(4, 4)) }

func mustRun(t *testing.T, cfg Config, msgs []Message) Result {
	t.Helper()
	s := MustNew(cfg)
	res, err := s.RunBurst(msgs)
	if err != nil {
		t.Fatalf("RunBurst: %v", err)
	}
	return res
}

// checkConservation asserts the flit-conservation invariants that any
// correct run must satisfy.
func checkConservation(t *testing.T, cfg Config, msgs []Message, res Result) {
	t.Helper()
	if res.BufferReads != res.BufferWrites {
		t.Errorf("buffer reads %d != writes %d", res.BufferReads, res.BufferWrites)
	}
	// Every flit traverses exactly HopDist links and is ejected once.
	var wantHops, wantFlits int64
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes <= 0 {
			continue
		}
		f := int64(flitsForBytes(cfg, m.Bytes))
		wantFlits += f
		wantHops += f * int64(cfg.Mesh.HopDist(m.Src, m.Dst))
	}
	if res.Flits != wantFlits {
		t.Errorf("flits = %d, want %d", res.Flits, wantFlits)
	}
	if res.LinkTraversals != wantHops {
		t.Errorf("link traversals = %d, want %d (XY minimal routing)", res.LinkTraversals, wantHops)
	}
	if res.SwitchTraversals != wantHops+wantFlits {
		t.Errorf("switch traversals = %d, want %d", res.SwitchTraversals, wantHops+wantFlits)
	}
	if lb := LowerBoundDrain(cfg, msgs); res.Cycles < lb {
		t.Errorf("drain %d cycles beats lower bound %d", res.Cycles, lb)
	}
}

func TestSinglePacketAdjacent(t *testing.T) {
	cfg := cfg4x4()
	msgs := []Message{{Src: 0, Dst: 1, Bytes: 64}} // 1 head + 1 payload flit
	res := mustRun(t, cfg, msgs)
	if res.Packets != 1 || res.Flits != 2 {
		t.Fatalf("packets=%d flits=%d", res.Packets, res.Flits)
	}
	checkConservation(t, cfg, msgs, res)
	// Pipeline floor: inject(ready at stage-1) + traverse + link +
	// stage + eject. Exact value is implementation-defined; bound it.
	if res.Cycles < 4 || res.Cycles > 20 {
		t.Errorf("adjacent 2-flit packet drained in %d cycles", res.Cycles)
	}
}

func TestPacketSplitting(t *testing.T) {
	cfg := cfg4x4()
	// 1216 bytes = exactly one 20-flit packet payload.
	if got := PacketsForBytes(cfg, cfg.PayloadPerPacket()); got != 1 {
		t.Errorf("one full payload → %d packets", got)
	}
	if got := PacketsForBytes(cfg, cfg.PayloadPerPacket()+1); got != 2 {
		t.Errorf("payload+1 → %d packets", got)
	}
	// 100KB message: ceil(102400/1216) = 85 packets.
	res := mustRun(t, cfg, []Message{{Src: 0, Dst: 15, Bytes: 102400}})
	if res.Packets != 85 {
		t.Errorf("packets = %d, want 85", res.Packets)
	}
}

func TestZeroAndSelfMessagesIgnored(t *testing.T) {
	cfg := cfg4x4()
	res := mustRun(t, cfg, []Message{
		{Src: 3, Dst: 3, Bytes: 4096},
		{Src: 1, Dst: 2, Bytes: 0},
	})
	if res.Packets != 0 || res.Cycles != 0 {
		t.Errorf("expected empty run, got %+v", res)
	}
}

func TestOutOfRangeMessageErrors(t *testing.T) {
	s := MustNew(cfg4x4())
	if _, err := s.RunBurst([]Message{{Src: 0, Dst: 16, Bytes: 10}}); err == nil {
		t.Error("expected error for out-of-mesh destination")
	}
}

func TestBadConfigErrors(t *testing.T) {
	cfg := cfg4x4()
	cfg.VCs = 0
	if _, err := New(cfg); err == nil {
		t.Error("expected error for zero VCs")
	}
	cfg.VCs = 13
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "limit of 12") {
		t.Errorf("13 VCs: got %v, want an error naming the limit of 12", err)
	}
	cfg.VCs = 12
	if _, err := New(cfg); err != nil {
		t.Errorf("12 VCs rejected: %v", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for zero config")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := cfg4x4()
	rng := rand.New(rand.NewSource(11))
	var msgs []Message
	for i := 0; i < 40; i++ {
		msgs = append(msgs, Message{
			Src:   rng.Intn(16),
			Dst:   rng.Intn(16),
			Bytes: 1 + rng.Intn(5000),
		})
	}
	a := mustRun(t, cfg, msgs)
	b := mustRun(t, cfg, msgs)
	if a != b {
		t.Errorf("same input gave different results:\n%+v\n%+v", a, b)
	}
}

func TestAllToAllBroadcastBurst(t *testing.T) {
	// The paper's traditional parallelization: every core sends its
	// activation slice to every other core at a layer transition.
	cfg := cfg4x4()
	const sliceBytes = 2048
	var msgs []Message
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d, Bytes: sliceBytes})
			}
		}
	}
	res := mustRun(t, cfg, msgs)
	checkConservation(t, cfg, msgs, res)
	// Drain should be within a small factor of the analytic bound —
	// the network must not collapse under the burst.
	lb := LowerBoundDrain(cfg, msgs)
	if res.Cycles > 8*lb {
		t.Errorf("all-to-all drain %d cycles vs lower bound %d (too congested)", res.Cycles, lb)
	}
}

func TestTrafficReductionReducesDrain(t *testing.T) {
	// The core claim of the paper's method: removing long-distance
	// messages shortens the burst drain. Compare full broadcast with a
	// neighbor-only pattern of the same per-message size.
	cfg := cfg4x4()
	var full, near []Message
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			m := Message{Src: s, Dst: d, Bytes: 4096}
			full = append(full, m)
			if cfg.Mesh.HopDist(s, d) <= 1 {
				near = append(near, m)
			}
		}
	}
	rf := mustRun(t, cfg, full)
	rn := mustRun(t, cfg, near)
	if rn.Cycles >= rf.Cycles {
		t.Errorf("neighbor-only drain %d !< full broadcast drain %d", rn.Cycles, rf.Cycles)
	}
	if rn.LinkTraversals >= rf.LinkTraversals {
		t.Errorf("neighbor-only flit-hops %d !< full %d", rn.LinkTraversals, rf.LinkTraversals)
	}
}

func TestMorePlanesDrainFaster(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	var msgs []Message
	for s := 0; s < 16; s++ {
		msgs = append(msgs, Message{Src: s, Dst: 15 - s, Bytes: 20000})
	}
	one := DefaultConfig(mesh)
	one.Planes = 1
	two := DefaultConfig(mesh)
	two.Planes = 2
	r1 := mustRun(t, one, msgs)
	r2 := mustRun(t, two, msgs)
	if r2.Cycles >= r1.Cycles {
		t.Errorf("2 planes (%d cycles) not faster than 1 plane (%d cycles)", r2.Cycles, r1.Cycles)
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	cfg := cfg4x4()
	near := mustRun(t, cfg, []Message{{Src: 0, Dst: 1, Bytes: 256}})
	far := mustRun(t, cfg, []Message{{Src: 0, Dst: 15, Bytes: 256}})
	if far.MaxPacketLatency <= near.MaxPacketLatency {
		t.Errorf("far latency %d <= near latency %d", far.MaxPacketLatency, near.MaxPacketLatency)
	}
}

func TestTimeOffsetInjection(t *testing.T) {
	cfg := cfg4x4()
	res := mustRun(t, cfg, []Message{{Src: 0, Dst: 3, Bytes: 64, Time: 100}})
	if res.Cycles <= 100 {
		t.Errorf("cycle count %d must exceed injection time 100", res.Cycles)
	}
	// Latency is measured from the message's own injection time.
	if res.MaxPacketLatency > 60 {
		t.Errorf("latency %d should not include the injection delay", res.MaxPacketLatency)
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Cycles: 10, Packets: 2, Flits: 5, LinkTraversals: 7, MaxPacketLatency: 4}
	b := Result{Cycles: 5, Packets: 1, Flits: 2, LinkTraversals: 3, MaxPacketLatency: 9}
	a.Add(b)
	if a.Cycles != 15 || a.Packets != 3 || a.Flits != 7 || a.LinkTraversals != 10 {
		t.Errorf("Add got %+v", a)
	}
	if a.MaxPacketLatency != 9 {
		t.Errorf("Add must take max latency, got %d", a.MaxPacketLatency)
	}
}

func TestAvgLatencyEmpty(t *testing.T) {
	if (Result{}).AvgLatency() != 0 {
		t.Error("AvgLatency of empty result must be 0")
	}
}

// Property: for random message sets, conservation invariants hold and
// the network always drains.
func TestQuickRandomTrafficConservation(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(3, 3))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{
				Src:   rng.Intn(9),
				Dst:   rng.Intn(9),
				Bytes: rng.Intn(4000),
				Time:  int64(rng.Intn(50)),
			}
		}
		s := MustNew(cfg)
		res, err := s.RunBurst(msgs)
		if err != nil {
			return false
		}
		var wantFlits, wantHops int64
		for _, m := range msgs {
			if m.Src == m.Dst || m.Bytes <= 0 {
				continue
			}
			fl := int64(flitsForBytes(cfg, m.Bytes))
			wantFlits += fl
			wantHops += fl * int64(cfg.Mesh.HopDist(m.Src, m.Dst))
		}
		return res.Flits == wantFlits &&
			res.LinkTraversals == wantHops &&
			res.BufferReads == res.BufferWrites &&
			res.SwitchTraversals == wantHops+wantFlits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding traffic never reduces flit-hops and never makes the
// result non-draining (deadlock freedom smoke test).
func TestQuickMonotoneTraffic(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(4, 2))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := []Message{{Src: rng.Intn(8), Dst: rng.Intn(8), Bytes: 1 + rng.Intn(2000)}}
		more := append([]Message{}, base...)
		more = append(more, Message{Src: rng.Intn(8), Dst: rng.Intn(8), Bytes: 1 + rng.Intn(2000)})
		s := MustNew(cfg)
		r1, err1 := s.RunBurst(base)
		r2, err2 := s.RunBurst(more)
		return err1 == nil && err2 == nil && r2.LinkTraversals >= r1.LinkTraversals
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllToAllBurst16(b *testing.B) {
	cfg := cfg4x4()
	var msgs []Message
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d, Bytes: 4096})
			}
		}
	}
	sim := MustNew(cfg)
	if _, err := sim.RunBurst(msgs); err != nil { // size the reusable storage
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBurst(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-hop latency must scale with the router pipeline depth: a lone
// head+tail packet over h hops takes roughly h·(stages+1) cycles plus
// injection/ejection overhead, and doubling the stage count must slow
// it down.
func TestPerHopLatencyScalesWithStages(t *testing.T) {
	base := cfg4x4()
	deep := cfg4x4()
	deep.Stages = 6
	msg := []Message{{Src: 0, Dst: 15, Bytes: 64}} // 6 hops
	rBase := mustRun(t, base, msg)
	rDeep := mustRun(t, deep, msg)
	if rDeep.MaxPacketLatency <= rBase.MaxPacketLatency {
		t.Errorf("deeper pipeline not slower: %d vs %d",
			rDeep.MaxPacketLatency, rBase.MaxPacketLatency)
	}
	// Lower bound: each hop costs at least the router pipeline depth
	// (stages−1 wait + 1 switch/link cycle): 6 hops × 3 = 18 cycles.
	if rBase.MaxPacketLatency < 18 {
		t.Errorf("latency %d beats the pipeline floor", rBase.MaxPacketLatency)
	}
}

// A single-VC network must still drain an all-to-all burst (wormhole +
// XY routing is deadlock-free without extra VCs).
func TestSingleVCDeadlockFree(t *testing.T) {
	cfg := cfg4x4()
	cfg.VCs = 1
	var msgs []Message
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d, Bytes: 1024})
			}
		}
	}
	res := mustRun(t, cfg, msgs)
	if res.Packets == 0 || res.Cycles == 0 {
		t.Fatal("single-VC burst did not run")
	}
	checkConservation(t, cfg, msgs, res)
}

// TestLinkStatsTopN covers the TopN accessor and the "(+N more)"
// truncation trailer of String.
func TestLinkStatsTopN(t *testing.T) {
	var ls LinkStats
	for i := 0; i < 12; i++ {
		ls.Loads = append(ls.Loads, LinkLoad{From: i, To: i + 1, Flits: int64(100 - i)})
		ls.Total += int64(100 - i)
	}
	ls.Max = 100
	if got := ls.TopN(3); len(got) != 3 || got[0].Flits != 100 || got[2].Flits != 98 {
		t.Errorf("TopN(3) = %v", got)
	}
	if got := ls.TopN(50); len(got) != 12 {
		t.Errorf("TopN(50) = %d links, want all 12", len(got))
	}
	if got := ls.TopN(0); got != nil {
		t.Errorf("TopN(0) = %v, want nil", got)
	}
	s := ls.String()
	if !strings.Contains(s, "(+4 more)") {
		t.Errorf("String missing truncation trailer:\n%s", s)
	}
	short := LinkStats{Loads: ls.Loads[:3], Max: 100, Total: 297}
	if strings.Contains(short.String(), "more)") {
		t.Errorf("untruncated String grew a trailer:\n%s", short.String())
	}
}

// TestObsMetrics attaches a registry and checks the simulator reports
// the packet-latency histogram, router occupancy high-water, and
// packet/flit counters consistently with the Result.
func TestObsMetrics(t *testing.T) {
	reg := obs.New()
	cfg := cfg4x4()
	cfg.Obs = reg
	var msgs []Message
	for d := 1; d < 16; d++ {
		msgs = append(msgs, Message{Src: 0, Dst: d, Bytes: 2048})
	}
	res := mustRun(t, cfg, msgs)

	snap := reg.SnapshotClass(obs.Stable)
	var hist *obs.HistogramSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "noc.packet_latency_cycles" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatal("no packet-latency histogram recorded")
	}
	if hist.Count != res.Packets {
		t.Errorf("histogram count %d != packets %d", hist.Count, res.Packets)
	}
	if hist.Sum != res.TotalPacketLatency || hist.Max != res.MaxPacketLatency {
		t.Errorf("histogram digest sum=%d max=%d, result %d/%d",
			hist.Sum, hist.Max, res.TotalPacketLatency, res.MaxPacketLatency)
	}
	if len(hist.Counts) != len(LatencyBuckets)+1 {
		t.Errorf("bucket count %d, want %d", len(hist.Counts), len(LatencyBuckets)+1)
	}
	if res.MaxRouterOccupancy <= 0 {
		t.Error("burst left no occupancy high-water")
	}
	var found bool
	for _, g := range snap.Gauges {
		if g.Name == "noc.router_occupancy_high_water" {
			found = true
			if int64(g.Value) != res.MaxRouterOccupancy {
				t.Errorf("gauge %v != result %d", g.Value, res.MaxRouterOccupancy)
			}
		}
	}
	if !found {
		t.Error("occupancy gauge missing")
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "noc.packets":
			if c.Value != res.Packets {
				t.Errorf("packets counter %d != %d", c.Value, res.Packets)
			}
		case "noc.flits":
			if c.Value != res.Flits {
				t.Errorf("flits counter %d != %d", c.Value, res.Flits)
			}
		}
	}
}

// Occupancy must drain back to zero when the burst finishes: every
// pushed flit is popped.
func TestObsOccupancyDrains(t *testing.T) {
	cfg := cfg4x4()
	s := MustNew(cfg)
	if _, err := s.RunBurst([]Message{{Src: 0, Dst: 15, Bytes: 8192}}); err != nil {
		t.Fatal(err)
	}
	for p := range s.planes {
		for rid, n := range s.planes[p].occ {
			if n != 0 {
				t.Errorf("plane %d router %d holds %d flits after drain", p, rid, n)
			}
		}
	}
}

// LowerBoundDrain returns an analytic lower bound on the burst drain
// time: the max of the per-node injection/ejection serialization
// bounds and the bisection bound, plus the minimum head latency. The
// simulator can never beat this; the tests use it as a sanity envelope.
func LowerBoundDrain(cfg Config, msgs []Message) int64 {
	inFlits := make([]int64, cfg.Mesh.Nodes())
	outFlits := make([]int64, cfg.Mesh.Nodes())
	var cross int64
	maxHop := 0
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes <= 0 {
			continue
		}
		f := int64(flitsForBytes(cfg, m.Bytes))
		outFlits[m.Src] += f
		inFlits[m.Dst] += f
		if h := cfg.Mesh.HopDist(m.Src, m.Dst); h > maxHop {
			maxHop = h
		}
		// Bisection crossing along the wider dimension.
		half := cfg.Mesh.W / 2
		sx := cfg.Mesh.Coord(m.Src).X
		dx := cfg.Mesh.Coord(m.Dst).X
		if cfg.Mesh.W >= cfg.Mesh.H && cfg.Mesh.W > 1 {
			if (sx < half) != (dx < half) {
				cross += f
			}
		}
	}
	planes := int64(cfg.Planes)
	var lb int64
	for i := range inFlits {
		if b := inFlits[i] / planes; b > lb {
			lb = b
		}
		if b := outFlits[i] / planes; b > lb {
			lb = b
		}
	}
	if cfg.Mesh.W >= cfg.Mesh.H && cfg.Mesh.W > 1 {
		links := int64(cfg.Mesh.H) * planes
		if b := cross / links; b > lb {
			lb = b
		}
	}
	return lb + int64(maxHop*(cfg.Stages+1))
}
