package noc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// switchCase is one differential run: a network config and up to three
// burst groups of one session. Groups 0 and 1 are injected up front at
// their offsets; group 2, when present, is injected after the first
// Next, offset from the session clock at that point.
type switchCase struct {
	cfg    Config
	groups [][]Message
	at     []int64
	traced bool
}

// groupRun is what one session group reports.
type groupRun struct {
	id   int
	end  int64
	res  Result
	lost []LostTransfer
}

// sessionRun is everything a switch allocator may influence.
type sessionRun struct {
	groups    []groupRun
	loopIters int64
	linkLoad  [][4]int64
	record    []byte
}

// runSwitchCase runs c on a fresh simulator, with the reference dense
// scan when dense is set.
func runSwitchCase(t *testing.T, c switchCase, dense bool) sessionRun {
	t.Helper()
	cfg := c.cfg
	var sink *timeline.Sink
	if c.traced {
		sink = timeline.NewSink()
		cfg.Timeline = sink
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("config %+v: %v", c.cfg, err)
	}
	s.denseArbitration = dense
	ses := s.Begin()
	inject := func(k int, at int64) {
		var sec *timeline.Section
		if sink != nil {
			sec = sink.Section("g")
		}
		if _, err := ses.Inject(c.groups[k], at, int64(k+1), sec); err != nil {
			t.Fatalf("inject group %d: %v", k, err)
		}
	}
	var out sessionRun
	next := func() {
		gi, end, err := ses.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		out.groups = append(out.groups, groupRun{gi, end, ses.Result(gi), ses.Lost(gi)})
	}
	for k := 0; k < len(c.groups) && k < 2; k++ {
		inject(k, c.at[k])
	}
	next()
	if len(c.groups) > 2 {
		inject(2, ses.Now()+c.at[2])
	}
	for len(out.groups) < len(c.groups) {
		next()
	}
	out.loopIters = s.LoopIters()
	out.linkLoad = append([][4]int64(nil), s.linkLoad...)
	if sink != nil {
		var buf bytes.Buffer
		if err := sink.WriteRecord(&buf, "noc-test", nil); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
		out.record = buf.Bytes()
	}
	return out
}

// checkSwitchAllocation holds the request-mask allocator equal to the
// dense scan on c: per-group results, lost transfers and resolution
// order, loop iterations, per-link load and the timeline record bytes.
func checkSwitchAllocation(t *testing.T, c switchCase) {
	t.Helper()
	got := runSwitchCase(t, c, false)
	want := runSwitchCase(t, c, true)
	if !reflect.DeepEqual(got.groups, want.groups) {
		t.Fatalf("config %+v: groups diverged:\nmask  %+v\ndense %+v", c.cfg, got.groups, want.groups)
	}
	if got.loopIters != want.loopIters {
		t.Fatalf("config %+v: loop iterations %d, dense %d", c.cfg, got.loopIters, want.loopIters)
	}
	if !reflect.DeepEqual(got.linkLoad, want.linkLoad) {
		t.Fatalf("config %+v: link load diverged:\nmask  %v\ndense %v", c.cfg, got.linkLoad, want.linkLoad)
	}
	if !bytes.Equal(got.record, want.record) {
		t.Fatalf("config %+v: timeline records differ (%d vs %d bytes)", c.cfg, len(got.record), len(want.record))
	}
}

// faultFor returns fault scenario kind (0 none, 1 flit drops, 2 a slow
// link, 3 one to three dead links) on mesh m, placed by pick; nil when
// m has no link to fault.
func faultFor(m topology.Mesh, kind, pick int) *fault.Config {
	links := fault.MeshLinks(m)
	if kind == 0 || len(links) == 0 {
		return nil
	}
	l := links[pick%len(links)]
	switch kind {
	case 1:
		return &fault.Config{Seed: int64(pick), DropProb: 0.15, RetryBudget: pick % 3, RetryBackoff: 8}
	case 2:
		return &fault.Config{SlowLinks: []fault.Link{l}, SlowExtraCycles: 1 + pick%5}
	default:
		dead := []fault.Link{l}
		for i := 1; i <= pick%3; i++ {
			dead = append(dead, links[(pick+7*i)%len(links)])
		}
		return &fault.Config{DeadLinks: dead}
	}
}

// randomSwitchCase draws a small network, with every VC count up to
// maxVCs so all widths of the slot tables and occupancy masks are
// exercised, and one to three staggered bursts from rng.
func randomSwitchCase(rng *rand.Rand) switchCase {
	m := topology.NewMesh(1+rng.Intn(4), 1+rng.Intn(4))
	cfg := DefaultConfig(m)
	cfg.VCs = 1 + rng.Intn(maxVCs)
	cfg.BufDepth = 1 + rng.Intn(8)
	cfg.Planes = 1 + rng.Intn(2)
	cfg.Stages = 1 + rng.Intn(4)
	cfg.PacketFlits = 2 + rng.Intn(8)
	cfg.MaxCycles = 1_000_000
	cfg.Fault = faultFor(m, rng.Intn(4), rng.Intn(64))
	c := switchCase{cfg: cfg, traced: rng.Intn(2) == 0}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		msgs := make([]Message, 1+rng.Intn(3*m.Nodes()))
		for i := range msgs {
			msgs[i] = Message{
				Src:   rng.Intn(m.Nodes()),
				Dst:   rng.Intn(m.Nodes()),
				Bytes: rng.Intn(1500),
				Time:  int64(rng.Intn(120)),
			}
		}
		c.groups = append(c.groups, msgs)
		c.at = append(c.at, int64(rng.Intn(60)))
	}
	return c
}

// TestSwitchAllocationMatchesDenseScan: the request-mask allocator,
// with its empty-router skip, occupancy masks and cached head routes,
// must reproduce the dense scan it replaced bit for bit over random
// networks, fault scenarios and overlapping sessions.
func TestSwitchAllocationMatchesDenseScan(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < int64(n); seed++ {
		checkSwitchAllocation(t, randomSwitchCase(rand.New(rand.NewSource(seed))))
	}

	// A traced 3-group session overlapping on a busy 4×4 mesh, under
	// each fault kind.
	m := topology.NewMesh(4, 4)
	bursts := burstPatterns(m.Nodes())
	for kind := 0; kind < 4; kind++ {
		cfg := DefaultConfig(m)
		cfg.Fault = faultFor(m, kind, 5)
		checkSwitchAllocation(t, switchCase{cfg: cfg, groups: bursts, at: []int64{0, 30, 10}, traced: true})
	}

	// The widest request mask: 12 VCs fill 60 of its 64 slots.
	cfg := DefaultConfig(m)
	cfg.VCs = 12
	cfg.BufDepth = 2
	checkSwitchAllocation(t, switchCase{cfg: cfg, groups: bursts[:1], at: []int64{0}})
}

// FuzzSwitchAllocation drives the same differential check from raw
// bytes: shape picks the network (mesh, VCs up to maxVCs, buffer
// depth, planes, stages, packet length, fault scenario) and every 4 bytes of msgs are
// one message (source, destination, size, injection time), dealt
// round-robin into up to three session groups.
func FuzzSwitchAllocation(f *testing.F) {
	f.Add([]byte{3, 3, 2, 1, 1, 2, 4, 0, 9}, []byte{0, 8, 40, 0, 8, 0, 40, 3, 4, 4, 90, 9, 2, 6, 10, 1})
	f.Add([]byte{2, 1, 0, 0, 0, 3, 1, 1, 3}, []byte{0, 7, 255, 0, 7, 0, 200, 5, 1, 6, 30, 2, 3, 0, 99, 7, 5, 1, 12, 0})
	f.Fuzz(func(t *testing.T, shape, msgs []byte) {
		b := func(i int) int {
			if i < len(shape) {
				return int(shape[i])
			}
			return 0
		}
		m := topology.NewMesh(1+b(0)%4, 1+b(1)%4)
		cfg := DefaultConfig(m)
		cfg.VCs = 1 + b(2)%maxVCs
		cfg.BufDepth = 1 + b(3)%8
		cfg.Planes = 1 + b(4)%2
		cfg.Stages = 1 + b(5)%4
		cfg.PacketFlits = 2 + b(6)%8
		cfg.MaxCycles = 1_000_000
		cfg.Fault = faultFor(m, b(7)%4, b(8))
		groups := 1 + len(msgs)/4%3
		c := switchCase{cfg: cfg, groups: make([][]Message, groups), traced: b(7)&4 != 0}
		for k := 0; k < groups; k++ {
			c.at = append(c.at, int64(b(9+k)))
		}
		for i := 0; i+4 <= len(msgs) && i < 4*64; i += 4 {
			k := i / 4 % groups
			c.groups[k] = append(c.groups[k], Message{
				Src:   int(msgs[i]) % m.Nodes(),
				Dst:   int(msgs[i+1]) % m.Nodes(),
				Bytes: 16 * int(msgs[i+2]),
				Time:  int64(msgs[i+3]),
			})
		}
		checkSwitchAllocation(t, c)
	})
}
