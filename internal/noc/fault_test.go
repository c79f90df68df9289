package noc

import (
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/topology"
)

func allPairsMsgs(m topology.Mesh, bytes int) []Message {
	var msgs []Message
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return msgs
}

// An inactive fault config must be bit-identical to no fault layer at
// all — the zero-fault anchor every sweep row at rate 0 rests on.
func TestZeroFaultBitIdentical(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)
	base := mustRun(t, cfg4x4(), msgs)
	for _, fc := range []*fault.Config{
		{},
		{Seed: 99},
		fault.Scenario(0, 7),
		{Seed: 1, RetryBudget: 5, RetryBackoff: 64}, // retry policy without faults
	} {
		cfg := cfg4x4()
		cfg.Fault = fc
		got := mustRun(t, cfg, msgs)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("inactive fault config %+v changed the result:\nbase %+v\ngot  %+v", *fc, base, got)
		}
	}
}

// Transient faults over a seeded ascending rate grid: retransmissions
// and corrupted flits must be non-decreasing in the fault rate, and a
// faulted run must still deliver or account for every packet. The grid
// and seed are pinned; fault decisions are threshold-coupled across
// rates, which is what makes the monotone sweep possible at all.
func TestTransientFaultMonotoneGrid(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)
	var prev Result
	for i, rate := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2} {
		cfg := cfg4x4()
		cfg.Fault = fault.Scenario(rate, 5)
		res := mustRun(t, cfg, msgs)
		if res.Packets != int64(len(msgs)) {
			t.Fatalf("rate %g: %d packets counted, want %d", rate, res.Packets, len(msgs))
		}
		if rate == 0 && (res.Retransmits != 0 || res.DroppedFlits != 0 || res.LostPackets != 0) {
			t.Fatalf("zero rate produced fault events: %+v", res)
		}
		if i > 0 {
			if res.DroppedFlits < prev.DroppedFlits {
				t.Errorf("rate %g: dropped flits %d < %d at the previous rate",
					rate, res.DroppedFlits, prev.DroppedFlits)
			}
			if res.Retransmits+res.LostPackets < prev.Retransmits+prev.LostPackets {
				t.Errorf("rate %g: retransmits+losses %d < %d at the previous rate",
					rate, res.Retransmits+res.LostPackets, prev.Retransmits+prev.LostPackets)
			}
			if res.Cycles < prev.Cycles {
				t.Errorf("rate %g: drain %d cycles faster than rate below it (%d)",
					rate, res.Cycles, prev.Cycles)
			}
		}
		prev = res
	}
}

// Determinism of the faulted simulator: same config, same burst, same
// result — including the lost-transfer list.
func TestFaultedRunDeterministic(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 1800)
	cfg := cfg4x4()
	cfg.Fault = fault.Scenario(0.15, 3)
	s := MustNew(cfg)
	a, lostA, err := runIsolated(s, msgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, lostB, err := runIsolated(s, msgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated faulted runs differ:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(lostA, lostB) {
		t.Errorf("lost transfers differ: %v vs %v", lostA, lostB)
	}
	if a.LostPackets > 0 && len(lostA) == 0 {
		t.Error("packets lost but no lost transfers reported")
	}
	for i := 1; i < len(lostA); i++ {
		if lostA[i-1].Src > lostA[i].Src ||
			(lostA[i-1].Src == lostA[i].Src && lostA[i-1].Dst >= lostA[i].Dst) {
			t.Fatalf("lost transfers not sorted/deduped: %v", lostA)
		}
	}
}

// Disabling retransmission (negative budget) must lose every corrupted
// packet instead of retrying it.
func TestRetryBudgetDisabled(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{Seed: 5, DropProb: 0.2, RetryBudget: -1}
	res := mustRun(t, cfg, msgs)
	if res.Retransmits != 0 {
		t.Errorf("disabled retransmission still retransmitted %d packets", res.Retransmits)
	}
	if res.LostPackets == 0 {
		t.Error("20% flit drops with no retries lost nothing")
	}
}

// A higher retry budget converts losses into retransmissions.
func TestRetryBudgetReducesLosses(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 1800)
	run := func(budget int) Result {
		cfg := cfg4x4()
		cfg.Fault = &fault.Config{Seed: 5, DropProb: 0.2, RetryBudget: budget}
		return mustRun(t, cfg, msgs)
	}
	small, large := run(1), run(8)
	if small.LostPackets == 0 {
		t.Fatal("budget 1 at 20% drops lost nothing; grid no longer stresses the budget")
	}
	if large.LostPackets >= small.LostPackets {
		t.Errorf("budget 8 lost %d packets, budget 1 lost %d — budget does not help",
			large.LostPackets, small.LostPackets)
	}
	if large.Retransmits <= small.Retransmits {
		t.Errorf("budget 8 retransmitted %d <= budget 1's %d", large.Retransmits, small.Retransmits)
	}
}

// Structural faults: traffic re-routes around a dead link and the run
// still drains with every packet delivered; the flit count is
// conserved but link traversals may exceed the XY minimum.
func TestDeadLinkReroutes(t *testing.T) {
	m := topology.NewMesh(4, 4)
	msgs := allPairsMsgs(m, 900)
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{DeadLinks: []fault.Link{{A: 5, B: 6}, {A: 9, B: 10}}}
	res := mustRun(t, cfg, msgs)
	if res.Packets != int64(len(msgs)) || res.LostPackets != 0 {
		t.Fatalf("connected survivor mesh lost traffic: %+v", res)
	}
	var wantFlits int64
	for _, msg := range msgs {
		wantFlits += int64(flitsForBytes(cfg, msg.Bytes))
	}
	if res.Flits != wantFlits {
		t.Errorf("flits = %d, want %d", res.Flits, wantFlits)
	}
	base := mustRun(t, cfg4x4(), msgs)
	if res.LinkTraversals < base.LinkTraversals {
		t.Errorf("re-routed traversals %d below the XY minimum %d",
			res.LinkTraversals, base.LinkTraversals)
	}
}

// A dead router loses exactly the transfers touching it; the rest of
// the burst drains normally.
func TestDeadRouterLosesItsTransfers(t *testing.T) {
	m := topology.NewMesh(4, 4)
	msgs := allPairsMsgs(m, 900)
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{DeadRouters: []int{5}}
	res, lost, err := runIsolated(MustNew(cfg), msgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 15 transfers out of node 5 plus 15 into it.
	if len(lost) != 30 {
		t.Fatalf("%d lost transfers, want 30: %v", len(lost), lost)
	}
	for _, l := range lost {
		if l.Src != 5 && l.Dst != 5 {
			t.Errorf("lost transfer %v does not touch the dead router", l)
		}
	}
	if res.Packets != int64(len(msgs)-30) {
		t.Errorf("%d packets delivered, want %d", res.Packets, len(msgs)-30)
	}
	if res.LostPackets != 30 {
		t.Errorf("LostPackets = %d, want 30", res.LostPackets)
	}
}

// Slow links add latency without losing anything.
func TestSlowLinksAddLatency(t *testing.T) {
	m := topology.NewMesh(4, 4)
	msgs := allPairsMsgs(m, 900)
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{
		SlowLinks:       fault.MeshLinks(m),
		SlowExtraCycles: 4,
	}
	slow := mustRun(t, cfg, msgs)
	base := mustRun(t, cfg4x4(), msgs)
	if slow.LostPackets != 0 || slow.DroppedFlits != 0 {
		t.Fatalf("slow links lost traffic: %+v", slow)
	}
	if slow.Cycles <= base.Cycles {
		t.Errorf("slow links drained in %d cycles, base %d", slow.Cycles, base.Cycles)
	}
	if slow.TotalPacketLatency <= base.TotalPacketLatency {
		t.Errorf("slow links latency %d <= base %d", slow.TotalPacketLatency, base.TotalPacketLatency)
	}
}

// Flaky-link restriction: drops only happen on the listed links, so a
// burst that avoids them is untouched even at DropProb 1.
func TestFlakyLinksRestrictDrops(t *testing.T) {
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{
		DropProb:   1,
		FlakyLinks: []fault.Link{{A: 0, B: 1}},
	}
	// Row-3 traffic never crosses link 0-1 under XY routing.
	res := mustRun(t, cfg, []Message{{Src: 12, Dst: 15, Bytes: 900}})
	if res.DroppedFlits != 0 || res.Retransmits != 0 || res.LostPackets != 0 {
		t.Errorf("traffic away from the flaky link was hit: %+v", res)
	}
	// Traffic across it is corrupted on every attempt and lost.
	res = mustRun(t, cfg, []Message{{Src: 0, Dst: 1, Bytes: 900}})
	if res.LostPackets == 0 {
		t.Errorf("certain corruption on the flaky link lost nothing: %+v", res)
	}
}
