package noc

import (
	"bytes"
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// analyzeRun attaches a fresh sink to cfg, runs the burst, and returns
// the result plus the round-tripped (written, re-read, validated)
// timeline analysis.
func analyzeRun(t *testing.T, cfg Config, msgs []Message) (Result, *timeline.Analysis) {
	t.Helper()
	sink := timeline.NewSink()
	cfg.Timeline = sink
	res := mustRun(t, cfg, msgs)
	var buf bytes.Buffer
	if err := sink.WriteRecord(&buf, "noc-test", nil); err != nil {
		t.Fatalf("WriteRecord: %v", err)
	}
	tl, err := timeline.ReadRecord(&buf)
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}
	a, err := timeline.Analyze(tl)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res, a
}

// An attached timeline sink must be pure observation: the Result of a
// traced run is bit-identical to an untraced one.
func TestTimelineSinkDoesNotPerturbResult(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)
	base := mustRun(t, cfg4x4(), msgs)
	traced, _ := analyzeRun(t, cfg4x4(), msgs)
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("timeline sink changed the result:\nbase   %+v\ntraced %+v", base, traced)
	}

	cfg := cfg4x4()
	cfg.Fault = fault.Scenario(0.1, 5)
	fbase := mustRun(t, cfg, msgs)
	cfg = cfg4x4()
	cfg.Fault = fault.Scenario(0.1, 5)
	ftraced, _ := analyzeRun(t, cfg, msgs)
	if !reflect.DeepEqual(fbase, ftraced) {
		t.Fatalf("timeline sink changed the faulted result:\nbase   %+v\ntraced %+v", fbase, ftraced)
	}
}

// The timeline must agree with the simulator's own counters: packet
// count, summed and maximum eject latency, link busy cycles, and an
// exactly telescoping latency decomposition.
func TestTimelineMatchesResult(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)
	res, a := analyzeRun(t, cfg4x4(), msgs)

	bd := a.Overall
	if int64(bd.Packets) != res.Packets {
		t.Fatalf("timeline has %d delivered packets, result %d", bd.Packets, res.Packets)
	}
	if bd.Total != res.TotalPacketLatency {
		t.Fatalf("timeline latency sum %d, result %d", bd.Total, res.TotalPacketLatency)
	}
	if sum := bd.QueueWait + bd.Pipeline + bd.VCStall + bd.SwitchStall + bd.Wire + bd.Serialization; sum != bd.Total {
		t.Fatalf("decomposition does not telescope: %d != %d (%+v)", sum, bd.Total, bd)
	}
	var maxLat int64
	for _, sec := range a.Sections {
		if c := sec.Critical; c != nil && c.Latency() > maxLat {
			maxLat = c.Latency()
		}
	}
	if maxLat != res.MaxPacketLatency {
		t.Fatalf("critical chain latency %d, result max %d", maxLat, res.MaxPacketLatency)
	}
	// Every flit's link traversal occupies the link for one cycle, so
	// summed link busy time equals the flit-hop count.
	var busy int64
	for _, l := range a.Links {
		busy += l.BusyCycles
	}
	if busy != res.LinkTraversals {
		t.Fatalf("link busy cycles %d, link traversals %d", busy, res.LinkTraversals)
	}
	if a.Retransmits != 0 || a.LostPackets != 0 || a.LostTransfers != 0 {
		t.Fatalf("fault-free timeline has fault events: %+v", a)
	}
}

// A zero-rate fault layer must leave no retransmission or loss events
// in the timeline, and an active one must put its retransmissions
// there.
func TestTimelineFaultEvents(t *testing.T) {
	msgs := allPairsMsgs(topology.NewMesh(4, 4), 900)

	cfg := cfg4x4()
	cfg.Fault = fault.Scenario(0, 5)
	res, a := analyzeRun(t, cfg, msgs)
	if a.Retransmits != 0 || a.LostPackets != 0 {
		t.Fatalf("zero-fault timeline has %d retx, %d lost", a.Retransmits, a.LostPackets)
	}
	if int64(a.Overall.Packets) != res.Packets {
		t.Fatalf("%d delivered in timeline, %d in result", a.Overall.Packets, res.Packets)
	}

	cfg = cfg4x4()
	cfg.Fault = fault.Scenario(0.1, 5)
	res, a = analyzeRun(t, cfg, msgs)
	if res.Retransmits == 0 {
		t.Fatalf("fault scenario produced no retransmits; test is vacuous")
	}
	if int64(a.Retransmits) != res.Retransmits {
		t.Fatalf("timeline has %d retx events, result %d", a.Retransmits, res.Retransmits)
	}
	if int64(a.LostPackets) != res.LostPackets {
		t.Fatalf("timeline has %d lost packets, result %d", a.LostPackets, res.LostPackets)
	}
	if int64(a.Overall.Packets) != res.Packets-res.LostPackets {
		t.Fatalf("timeline delivered %d, want %d-%d", a.Overall.Packets, res.Packets, res.LostPackets)
	}
}

// Disconnected endpoints surface as never-injected lost transfers.
func TestTimelineLostTransfers(t *testing.T) {
	cfg := cfg4x4()
	cfg.Fault = &fault.Config{DeadRouters: []int{5}}
	msgs := []Message{{Src: 0, Dst: 5, Bytes: 64}, {Src: 0, Dst: 1, Bytes: 64}}
	res, a := analyzeRun(t, cfg, msgs)
	if res.LostPackets == 0 {
		t.Fatalf("dead router lost nothing; test is vacuous")
	}
	if a.LostTransfers != 1 {
		t.Fatalf("%d never-injected transfers in timeline, want 1", a.LostTransfers)
	}
	if a.Overall.Packets != 1 {
		t.Fatalf("%d delivered, want 1", a.Overall.Packets)
	}
}

// With cfg.Timeline set, RunBurst hands each burst its own
// auto-registered section, numbered in call order.
func TestTimelineSectionHandoff(t *testing.T) {
	sink := timeline.NewSink()
	cfg := cfg4x4()
	cfg.Timeline = sink
	s := MustNew(cfg)
	msgs := []Message{{Src: 0, Dst: 3, Bytes: 64}}

	for i := 0; i < 2; i++ {
		if _, err := s.RunBurst(msgs); err != nil {
			t.Fatal(err)
		}
	}
	secs := sink.Sections()
	if len(secs) != 2 || secs[0].Label != "burst000" || secs[1].Label != "burst001" {
		t.Fatalf("sections = %+v", secs)
	}
	if len(secs[0].Events) == 0 || len(secs[1].Events) == 0 {
		t.Fatalf("empty sections: %d and %d events", len(secs[0].Events), len(secs[1].Events))
	}
}
