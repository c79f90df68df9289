package noc

import (
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// burstPatterns returns a few deterministic message bursts on an n-node
// mesh: all-to-all, a ring shift, and a hotspot.
func burstPatterns(nodes int) [][]Message {
	var all []Message
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if i != j {
				all = append(all, Message{Src: i, Dst: j, Bytes: 512 + 64*((i+j)%5)})
			}
		}
	}
	var ring []Message
	for i := 0; i < nodes; i++ {
		ring = append(ring, Message{Src: i, Dst: (i + 1) % nodes, Bytes: 2048})
	}
	var hot []Message
	for i := 1; i < nodes; i++ {
		hot = append(hot, Message{Src: i, Dst: 0, Bytes: 1024 + 32*i})
	}
	return [][]Message{all, ring, hot}
}

// runIsolated runs msgs alone as a one-group session under the given
// fault salt and timeline section, returning its result and lost
// transfers.
func runIsolated(sim *Simulator, msgs []Message, salt int64, sec *timeline.Section) (Result, []LostTransfer, error) {
	ses := sim.Begin()
	gi, err := ses.Inject(msgs, 0, salt, sec)
	if err != nil {
		return Result{}, nil, err
	}
	if _, _, err := ses.Next(); err != nil {
		return Result{}, nil, err
	}
	return ses.Result(gi), ses.Lost(gi), nil
}

// TestSessionSequentialMatchesRunBurst is the session's determinism
// contract: groups injected strictly one after another (each at the
// previous group's end cycle) must produce, per group, the exact
// Result and timeline events of the same bursts each run alone (as
// RunBurst does) — the property depth-1 pipelined execution rests on.
func TestSessionSequentialMatchesRunBurst(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		cfg := DefaultConfig(topology.Mesh{W: 4, H: 4})
		if faulty {
			cfg.Fault = &fault.Config{Seed: 5, DropProb: 0.05, RetryBudget: 2}
		}
		bursts := burstPatterns(cfg.Mesh.Nodes())

		// Reference: each burst on its own freshly reset simulator.
		refSink := timeline.NewSink()
		var want []Result
		ref := MustNew(cfg)
		for k, msgs := range bursts {
			r, _, err := runIsolated(ref, msgs, int64(k), refSink.Section("b"))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}

		// Session: same bursts, same salts, strictly sequential.
		sesSink := timeline.NewSink()
		ses := MustNew(cfg).Begin()
		var at int64
		var got []Result
		for k, msgs := range bursts {
			gi, err := ses.Inject(msgs, at, int64(k), sesSink.Section("b"))
			if err != nil {
				t.Fatal(err)
			}
			g, end, err := ses.Next()
			if err != nil {
				t.Fatal(err)
			}
			if g != gi {
				t.Fatalf("faulty=%v: resolved group %d, injected %d", faulty, g, gi)
			}
			got = append(got, ses.Result(g))
			at = end
		}

		for k := range bursts {
			if !reflect.DeepEqual(want[k], got[k]) {
				t.Errorf("faulty=%v burst %d: session result differs\nburst:   %+v\nsession: %+v",
					faulty, k, want[k], got[k])
			}
		}
		ws, gs := refSink.Sections(), sesSink.Sections()
		for k := range bursts {
			if ws[k].Comm != gs[k].Comm {
				t.Errorf("faulty=%v burst %d: comm %d vs %d", faulty, k, ws[k].Comm, gs[k].Comm)
			}
			if !reflect.DeepEqual(ws[k].Events, gs[k].Events) {
				t.Errorf("faulty=%v burst %d: timeline events differ (%d vs %d events)",
					faulty, k, len(ws[k].Events), len(gs[k].Events))
			}
		}
	}
}

// Overlapping groups must all resolve, conserve packets
// (injected == ejected + lost without structural faults), and report
// per-group drain times no shorter than their isolated runs — shared
// links can only add contention.
func TestSessionOverlapConservation(t *testing.T) {
	cfg := DefaultConfig(topology.Mesh{W: 4, H: 4})
	cfg.Fault = &fault.Config{Seed: 11, DropProb: 0.08, RetryBudget: 1}
	bursts := burstPatterns(cfg.Mesh.Nodes())

	iso := make([]Result, len(bursts))
	sim := MustNew(cfg)
	for k, msgs := range bursts {
		r, _, err := runIsolated(sim, msgs, int64(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		iso[k] = r
	}

	ses := MustNew(cfg).Begin()
	for k, msgs := range bursts {
		if _, err := ses.Inject(msgs, 0, int64(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for range bursts {
		g, end, err := ses.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[g] {
			t.Fatalf("group %d resolved twice", g)
		}
		seen[g] = true
		r := ses.Result(g)
		if r.Packets != r.EjectedPackets+r.LostPackets {
			t.Errorf("group %d: %d packets != %d ejected + %d lost",
				g, r.Packets, r.EjectedPackets, r.LostPackets)
		}
		if r.Cycles != end {
			t.Errorf("group %d: Cycles %d, end %d (injected at 0)", g, r.Cycles, end)
		}
		if r.Cycles < iso[g].Cycles {
			t.Errorf("group %d drained in %d cycles under contention, %d isolated", g, r.Cycles, iso[g].Cycles)
		}
	}
	if _, _, err := ses.Next(); err == nil {
		t.Error("Next with no outstanding groups did not error")
	}
}

func TestSessionEdgeCases(t *testing.T) {
	cfg := DefaultConfig(topology.Mesh{W: 2, H: 2})
	ses := MustNew(cfg).Begin()

	// Zero-traffic group resolves immediately at its inject cycle.
	gi, err := ses.Inject([]Message{{Src: 1, Dst: 1, Bytes: 64}}, 42, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, end, err := ses.Next()
	if err != nil {
		t.Fatal(err)
	}
	if g != gi || end != 42 {
		t.Errorf("zero-traffic group resolved as (%d, %d), want (%d, 42)", g, end, gi)
	}

	// Injecting behind the clock is a caller bug.
	if _, err := ses.Inject([]Message{{Src: 0, Dst: 1, Bytes: 64}}, 0, 0, nil); err != nil {
		t.Fatal(err) // clock still 0: allowed
	}
	if _, _, err := ses.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Inject([]Message{{Src: 0, Dst: 1, Bytes: 64}}, 0, 0, nil); err == nil {
		t.Error("inject behind the session clock did not error")
	}

	// Out-of-mesh messages are rejected.
	if _, err := ses.Inject([]Message{{Src: 0, Dst: 99, Bytes: 64}}, 1000, 0, nil); err == nil {
		t.Error("out-of-mesh message did not error")
	}

	// Sessions are invalidated by RunBurst.
	sim := MustNew(cfg)
	s2 := sim.Begin()
	if _, err := sim.RunBurst([]Message{{Src: 0, Dst: 1, Bytes: 64}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Inject(nil, 0, 0, nil); err == nil {
		t.Error("inject into a session invalidated by RunBurst did not error")
	}

	// ... and by the next Begin.
	old := sim.Begin()
	cur := sim.Begin()
	if _, err := old.Inject([]Message{{Src: 0, Dst: 1, Bytes: 64}}, 0, 0, nil); err == nil {
		t.Error("inject into a session invalidated by Begin did not error")
	}
	if _, err := cur.Inject([]Message{{Src: 0, Dst: 1, Bytes: 64}}, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := old.Next(); err == nil {
		t.Error("Next on a session invalidated by Begin did not error")
	}
	if _, _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionMaxCyclesPerResolution pins the session guard's horizon:
// MaxCycles bounds the wait for the next group resolution, not the
// session clock, so a long session of timely groups runs past it while
// a group that cannot resolve within MaxCycles of the previous one
// still errors.
func TestSessionMaxCyclesPerResolution(t *testing.T) {
	cfg := cfg4x4()
	cfg.MaxCycles = 1000
	msg := []Message{{Src: 0, Dst: 5, Bytes: 256}}
	ses := MustNew(cfg).Begin()
	for i := int64(0); i < 4; i++ {
		if _, err := ses.Inject(msg, ses.Now()+900, i, nil); err != nil {
			t.Fatal(err)
		}
		if _, end, err := ses.Next(); err != nil {
			t.Fatalf("group %d: %v", i, err)
		} else if i == 3 && end <= cfg.MaxCycles {
			t.Fatalf("session ended at cycle %d, want past MaxCycles %d", end, cfg.MaxCycles)
		}
	}
	if _, err := ses.Inject(msg, ses.Now()+cfg.MaxCycles+1, 9, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ses.Next(); err == nil {
		t.Fatal("group injected past the horizon resolved without a MaxCycles error")
	}
}

// TestSessionRecyclesArenas pins the session's memory bound: a resolved
// group's packet arena serves later groups, so groups that run one at
// a time share one arena however many the session injects, and the
// reuse leaves every result unchanged.
func TestSessionRecyclesArenas(t *testing.T) {
	cfg := cfg4x4()
	sim := MustNew(cfg)
	bursts := burstPatterns(cfg.Mesh.Nodes())
	var want []Result
	for _, msgs := range bursts {
		res, _, err := runIsolated(MustNew(cfg), msgs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	ses := sim.Begin()
	for round := 0; round < 3; round++ {
		for i, msgs := range bursts {
			g, err := ses.Inject(msgs, ses.Now(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ses.Next(); err != nil {
				t.Fatal(err)
			}
			if got := ses.Result(g); got != want[i] {
				t.Fatalf("round %d burst %d: %+v, alone %+v", round, i, got, want[i])
			}
		}
	}
	arenas := len(sim.spare)
	for _, g := range sim.groups {
		if g.arena != nil {
			arenas++
		}
	}
	if arenas != 1 {
		t.Fatalf("session of %d sequential groups holds %d packet arenas, want 1", 3*len(bursts), arenas)
	}
}

// TestSessionReuseAfterAbandon: Begin on a simulator whose last session
// was abandoned with flits still in the network must clear every piece
// of router state — VC buffers and owners, occupancy masks, cached head
// routes, credits and round-robin pointers — so the next burst runs
// exactly as on a fresh simulator: same Result, loop iterations and
// per-link loads. Each fault kind leaves different state behind (up*/
// down* routes cache "down" hops, drops leave retransmissions queued).
func TestSessionReuseAfterAbandon(t *testing.T) {
	m := topology.NewMesh(4, 4)
	bursts := burstPatterns(m.Nodes())
	for kind := 0; kind < 4; kind++ {
		cfg := DefaultConfig(m)
		cfg.Fault = faultFor(m, kind, 5)
		sim := MustNew(cfg)
		ses := sim.Begin()
		for k, msgs := range bursts {
			if _, err := ses.Inject(msgs, int64(10*k), int64(k), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := ses.Next(); err != nil {
			t.Fatal(err)
		}
		var buffered int64
		for p := range sim.planes {
			buffered += sim.planes[p].buffered
		}
		if buffered == 0 {
			t.Fatalf("fault kind %d: network drained at the first resolution; nothing left in flight to abandon", kind)
		}

		fresh := MustNew(cfg)
		for k, msgs := range bursts {
			want, wantLost, err := runIsolated(fresh, msgs, int64(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gotLost, err := runIsolated(sim, msgs, int64(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || !reflect.DeepEqual(gotLost, wantLost) {
				t.Fatalf("fault kind %d burst %d after an abandoned session:\ngot   %+v %v\nfresh %+v %v",
					kind, k, got, gotLost, want, wantLost)
			}
			if g, w := sim.LoopIters(), fresh.LoopIters(); g != w {
				t.Fatalf("fault kind %d burst %d: %d loop iterations, fresh %d", kind, k, g, w)
			}
			if g, w := sim.LinkUtilization(), fresh.LinkUtilization(); !reflect.DeepEqual(g, w) {
				t.Fatalf("fault kind %d burst %d: link stats differ:\ngot   %v\nfresh %v", kind, k, g, w)
			}
		}
	}
}
