package timeline

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilSafety exercises every method on nil receivers: the disabled
// tracer must be inert, not crash.
func TestNilSafety(t *testing.T) {
	var sink *Sink
	sink.SetPlatform(Platform{MeshW: 4})
	if p := sink.Platform(); p != (Platform{}) {
		t.Fatalf("nil sink platform = %+v", p)
	}
	sec := sink.Section("x")
	if sec != nil {
		t.Fatalf("nil sink handed out a section")
	}
	if s := sink.Sections(); s != nil {
		t.Fatalf("nil sink has sections %v", s)
	}
	if n := sink.Events(); n != 0 {
		t.Fatalf("nil sink has %d events", n)
	}
	sink.resolveStarts()

	sec.SetStart(5)
	sec.SetComm(5)
	sec.Inject(1, 0, 0, 0, 0, 1, 2)
	sec.Arrive(2, 0, 0, 1, 1, 0, 0)
	sec.Depart(3, 3, 0, 0, 1, 0, 0)
	sec.Eject(4, 0, 0, 1)
	sec.Retx(4, 8, 0, 1, 1)
	sec.Lost(4, 0, 1, 1, 0, 1)
	sec.LinkBusy(0, 3, 0, 0, 1)
	sec.Compute(0, 9, 2)
}

// synthetic builds a two-section sink with one full packet lifecycle,
// a link interval and a compute span (platform: 2x1 mesh, 2-stage
// pipeline).
func synthetic() *Sink {
	sink := NewSink()
	sink.SetPlatform(Platform{MeshW: 2, MeshH: 1, Stages: 2, Planes: 1, VCs: 1, FlitBytes: 64, PacketFlits: 4})
	sink.SetPlatform(Platform{MeshW: 99}) // ignored: first writer wins

	a := sink.Section("layerA")
	// Packet 0: node 0 → node 1, queued at 0, injected at 2.
	a.Inject(2, 0, 0, 0, 0, 1, 3)
	a.Depart(4, 3, 0, 0, 0, PortEastDir, 0) // local hop: vc alloc at 3
	a.Arrive(5, 0, 0, 1, PortWestDir, 0, 0)
	a.Depart(7, 6, 0, 0, 1, 0, 0) // dst hop, local out
	a.Eject(10, 0, 0, 1)
	a.LinkBusy(4, 7, 0, 0, PortEastDir)
	a.Compute(12, 20, 1)
	a.SetComm(12)

	b := sink.Section("layerB")
	b.Compute(0, 4, 0)
	b.SetComm(0)
	return sink
}

// Direction constants for test readability (Port values of events).
const (
	PortEastDir = 1
	PortWestDir = 2
)

func TestSectionRegistrationAndStarts(t *testing.T) {
	sink := synthetic()
	secs := sink.Sections()
	if len(secs) != 2 || secs[0].Label != "layerA" || secs[1].Label != "layerB" ||
		secs[0].Index != 0 || secs[1].Index != 1 {
		t.Fatalf("sections = %+v", secs)
	}
	if p := sink.Platform(); p.MeshW != 2 || p.Stages != 2 {
		t.Fatalf("platform not first-writer-wins: %+v", p)
	}
	sink.resolveStarts()
	// layerA spans to cycle 20 (compute tail past comm=12), so layerB
	// stacks at 20.
	if secs[0].Start != 0 || secs[1].Start != 20 {
		t.Fatalf("starts = %d, %d", secs[0].Start, secs[1].Start)
	}
	// Pinned starts are kept.
	sink2 := synthetic()
	sink2.Sections()[1].SetStart(100)
	sink2.resolveStarts()
	if got := sink2.Sections()[1].Start; got != 100 {
		t.Fatalf("pinned start overridden: %d", got)
	}
}

func TestRecordRoundTripAndDeterminism(t *testing.T) {
	sink := synthetic()
	var buf1, buf2 bytes.Buffer
	meta := map[string]string{"scheme": "test", "cores": "2"}
	if err := sink.WriteRecord(&buf1, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteRecord(&buf2, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("repeated WriteRecord not byte-identical")
	}

	tl, err := ReadRecord(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Tool != "unit" || tl.Meta["scheme"] != "test" {
		t.Fatalf("header round-trip: tool=%q meta=%v", tl.Tool, tl.Meta)
	}
	if tl.Platform != sink.Platform() {
		t.Fatalf("platform round-trip: %+v", tl.Platform)
	}
	if len(tl.Sections) != 2 {
		t.Fatalf("%d sections", len(tl.Sections))
	}
	orig := sink.Sections()
	for i, sec := range tl.Sections {
		if sec.Label != orig[i].Label || sec.Start != orig[i].Start || sec.Comm != orig[i].Comm {
			t.Fatalf("section %d header mismatch: %+v vs %+v", i, sec, orig[i])
		}
		if len(sec.Events) != len(orig[i].Events) {
			t.Fatalf("section %d: %d events, want %d", i, len(sec.Events), len(orig[i].Events))
		}
		for j := range sec.Events {
			if sec.Events[j] != orig[i].Events[j] {
				t.Fatalf("section %d event %d: %+v vs %+v", i, j, sec.Events[j], orig[i].Events[j])
			}
		}
	}

	// A parsed timeline re-renders identically through its Sink view.
	var buf3 bytes.Buffer
	if err := tl.Sink().WriteRecord(&buf3, "unit", meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Fatalf("record → Sink → record not idempotent")
	}
}

func TestReadRecordRejectsMalformed(t *testing.T) {
	good := func() string {
		var buf bytes.Buffer
		if err := synthetic().WriteRecord(&buf, "unit", nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	cases := map[string]string{
		"empty":          "",
		"bad header":     "not json\n",
		"bad version":    strings.Replace(good, `"version":1`, `"version":9`, 1),
		"no tool":        strings.Replace(good, `"tool":"unit"`, `"tool":""`, 1),
		"truncated":      good[:len(good)/2],
		"trailing":       good + "{\"k\":\"inject\"}\n",
		"unknown kind":   strings.Replace(good, `"k":"eject"`, `"k":"warp"`, 1),
		"inverted span":  strings.Replace(good, `{"k":"compute","c":0,"e":4}`, `{"k":"compute","c":9,"e":4}`, 1),
		"non-monotone":   strings.Replace(good, `{"k":"eject","c":10,"n":1}`, `{"k":"eject","c":1,"n":1}`, 1),
		"section index":  strings.Replace(good, `{"index":1,`, `{"index":7,`, 1),
		"negative cycle": strings.Replace(good, `{"k":"inject","c":2,`, `{"k":"inject","c":-2,`, 1),
	}
	for name, in := range cases {
		if _, err := ReadRecord(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadRecord(strings.NewReader(good)); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
}

func TestAnalyzeBreakdownIdentity(t *testing.T) {
	sink := synthetic()
	var buf bytes.Buffer
	if err := sink.WriteRecord(&buf, "unit", nil); err != nil {
		t.Fatal(err)
	}
	tl, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tl)
	if err != nil {
		t.Fatal(err)
	}
	bd := a.Overall
	if bd.Packets != 1 {
		t.Fatalf("%d packets", bd.Packets)
	}
	// Queued 0, inject 2, eject 10 → total 10.
	if bd.Total != 10 {
		t.Fatalf("total = %d", bd.Total)
	}
	if sum := bd.QueueWait + bd.Pipeline + bd.VCStall + bd.SwitchStall + bd.Wire + bd.Serialization; sum != bd.Total {
		t.Fatalf("breakdown does not sum: %d != %d (%+v)", sum, bd.Total, bd)
	}
	// Stages=2: hop0 arrive 2, vc 3, depart 4 → pipeline 1, vc 0, sw 1.
	// hop1 arrive 5, vc 6, depart 7 → pipeline 1, vc 0, sw 1.
	if bd.QueueWait != 2 || bd.Pipeline != 2 || bd.VCStall != 0 || bd.SwitchStall != 2 {
		t.Fatalf("breakdown = %+v", bd)
	}
	// wire: 5−4 inter-router + 1 ejection = 2; serialization 10−7−1 = 2.
	if bd.Wire != 2 || bd.Serialization != 2 {
		t.Fatalf("wire/serialization = %d/%d", bd.Wire, bd.Serialization)
	}
	if bd.Hops != 1 || a.MeanHops() != 1 {
		t.Fatalf("hops = %d mean %.2f", bd.Hops, a.MeanHops())
	}
	if a.ComputeCycles != 8+4 {
		t.Fatalf("compute cycles = %d", a.ComputeCycles)
	}
	// layerA spans to 20, layerB starts at 20 and spans 4.
	if a.TotalCycles != 24 {
		t.Fatalf("total cycles = %d", a.TotalCycles)
	}
	crit := a.Sections[0].Critical
	if crit == nil || crit.Packet != 0 || crit.LinkHops() != 1 || crit.Latency() != 10 {
		t.Fatalf("critical = %+v", crit)
	}
	if len(a.Links) != 1 || a.Links[0].BusyCycles != 3 || a.Links[0].From != 0 || a.Links[0].To != 1 {
		t.Fatalf("links = %+v", a.Links)
	}
	if h := a.HopHistogram(); len(h) != 2 || h[1] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestAnalyzeOutcomes(t *testing.T) {
	sink := NewSink()
	sink.SetPlatform(Platform{MeshW: 2, MeshH: 1, Stages: 2})
	sec := sink.Section("faulty")
	// Attempt 0 ends corrupt: full trail then retx scheduling attempt 1.
	sec.Inject(0, 0, 7, 0, 0, 1, 3)
	sec.Depart(1, 1, 7, 0, 0, PortEastDir, 0)
	sec.Arrive(2, 7, 0, 1, PortWestDir, 0, 0)
	sec.Depart(3, 3, 7, 0, 1, 0, 0)
	sec.Retx(6, 10, 7, 1, 1)
	// Attempt 1 delivered.
	sec.Inject(10, 10, 7, 1, 0, 1, 3)
	sec.Depart(11, 11, 7, 1, 0, PortEastDir, 0)
	sec.Arrive(12, 7, 1, 1, PortWestDir, 0, 0)
	sec.Depart(13, 13, 7, 1, 1, 0, 0)
	sec.Eject(16, 7, 1, 1)
	// Packet 8 lost terminally; transfer 0→1 never injected.
	sec.Inject(0, 0, 8, 0, 1, 0, 3)
	sec.Lost(4, 8, 0, 0, 1, 0)
	sec.Lost(0, -1, 0, 0, 0, 1)
	sec.SetComm(16)

	var buf bytes.Buffer
	if err := sink.WriteRecord(&buf, "unit", nil); err != nil {
		t.Fatal(err)
	}
	tl, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall.Packets != 1 || a.Retransmits != 1 || a.LostPackets != 1 || a.LostTransfers != 1 {
		t.Fatalf("outcomes: %d delivered, %d retx, %d lost, %d never injected",
			a.Overall.Packets, a.Retransmits, a.LostPackets, a.LostTransfers)
	}
	if crit := a.Sections[0].Critical; crit == nil || crit.Attempt != 1 {
		t.Fatalf("critical = %+v", crit)
	}
}

func TestNeighbor(t *testing.T) {
	p := Platform{MeshW: 3, MeshH: 2}
	cases := []struct{ id, dir, want int }{
		{0, 1, 1}, {2, 1, -1}, // east
		{1, 2, 0}, {0, 2, -1}, // west
		{3, 3, 0}, {0, 3, -1}, // north
		{0, 4, 3}, {3, 4, -1}, // south
		{0, 0, -1},
	}
	for _, c := range cases {
		if got := p.Neighbor(c.id, c.dir); got != c.want {
			t.Errorf("Neighbor(%d, %d) = %d, want %d", c.id, c.dir, got, c.want)
		}
	}
	if got := (Platform{}).Neighbor(0, 1); got != -1 {
		t.Errorf("zero platform neighbor = %d", got)
	}
}

func TestFormatReports(t *testing.T) {
	tlOf := func(s *Sink) *Timeline {
		var buf bytes.Buffer
		if err := s.WriteRecord(&buf, "unit", map[string]string{"scheme": "x"}); err != nil {
			t.Fatal(err)
		}
		tl, err := ReadRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	a, err := Analyze(tlOf(synthetic()))
	if err != nil {
		t.Fatal(err)
	}
	out := a.Format(5)
	for _, want := range []string{"layerA", "critical transfer", "link heat", "serialization", "scheme=x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	cmp := FormatCompare([]*Analysis{a, a}, []string{"base", "mask"})
	for _, want := range []string{"mean hop count", "base", "mask", "packets by hop distance"} {
		if !strings.Contains(cmp, want) {
			t.Errorf("FormatCompare missing %q:\n%s", want, cmp)
		}
	}
}
