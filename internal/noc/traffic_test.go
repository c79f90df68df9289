package noc

import (
	"bytes"
	"fmt"
	"testing"

	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/topology"
)

func TestGenerateTrafficDeterministic(t *testing.T) {
	cfg := cfg4x4()
	a := GenerateTraffic(cfg, Uniform, 0.1, 100, 7)
	b := GenerateTraffic(cfg, Uniform, 0.1, 100, 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical schedules")
		}
	}
}

func TestGenerateTrafficRateScales(t *testing.T) {
	cfg := cfg4x4()
	low := GenerateTraffic(cfg, Uniform, 0.05, 2000, 1)
	high := GenerateTraffic(cfg, Uniform, 0.2, 2000, 1)
	if len(high) < 2*len(low) {
		t.Errorf("4x rate gave %d vs %d messages", len(high), len(low))
	}
}

func TestGenerateTrafficRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("excessive rate must panic")
		}
	}()
	GenerateTraffic(cfg4x4(), Uniform, 5.0, 10, 1)
}

func TestTransposeDestinations(t *testing.T) {
	cfg := cfg4x4()
	msgs := GenerateTraffic(cfg, Transpose, 0.3, 200, 2)
	if len(msgs) == 0 {
		t.Fatal("no transpose traffic")
	}
	for _, m := range msgs {
		cs := cfg.Mesh.Coord(m.Src)
		cd := cfg.Mesh.Coord(m.Dst)
		if cd.X != cs.Y || cd.Y != cs.X {
			t.Fatalf("transpose sent %v to %v", cs, cd)
		}
	}
}

func TestNeighborIsOneDestination(t *testing.T) {
	cfg := cfg4x4()
	for _, m := range GenerateTraffic(cfg, Neighbor, 0.3, 100, 3) {
		if m.Dst != (m.Src+1)%16 {
			t.Fatalf("neighbor sent %d to %d", m.Src, m.Dst)
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	cfg := cfg4x4()
	center := cfg.Mesh.ID(topology.Coord{X: 2, Y: 2})
	counts := map[int]int{}
	msgs := GenerateTraffic(cfg, Hotspot, 0.3, 500, 4)
	for _, m := range msgs {
		counts[m.Dst]++
	}
	if counts[center] < len(msgs)/4 {
		t.Errorf("hotspot center got %d of %d messages", counts[center], len(msgs))
	}
}

func TestOpenLoopLatencyGrowsWithLoad(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(4, 4))
	sim := MustNew(cfg)
	curve, err := sim.LatencyLoadCurve(Uniform, []float64{0.05, 0.6}, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].AvgLatency <= 0 {
		t.Fatal("no latency measured")
	}
	if curve[1].AvgLatency <= curve[0].AvgLatency {
		t.Errorf("latency did not grow with load: %.1f -> %.1f",
			curve[0].AvgLatency, curve[1].AvgLatency)
	}
	// At low load the network is not saturated: it should drain soon
	// after the injection window.
	if curve[0].Drained > 900 {
		t.Errorf("low-load drain took %d cycles", curve[0].Drained)
	}
}

// TestLatencyLoadCurveWindows holds a traced sweep to one live
// telemetry window per offered load, spanning that load's drain, plus
// the plane's final window.
func TestLatencyLoadCurveWindows(t *testing.T) {
	var stream bytes.Buffer
	plane := live.New(live.Config{Out: &stream})
	cfg := DefaultConfig(topology.NewMesh(2, 2))
	cfg.Obs = obs.New()
	cfg.Obs.SetTap(plane)
	rates := []float64{0.05, 0.3}
	curve, err := MustNew(cfg).LatencyLoadCurve(Uniform, rates, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := plane.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := live.ReadStream(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(rates)+1 {
		t.Fatalf("%d windows, want %d", len(snaps), len(rates)+1)
	}
	for i, p := range curve {
		if want := fmt.Sprintf("load %.2f", rates[i]); snaps[i].Label != want || snaps[i].Span != float64(p.Drained) {
			t.Errorf("window %d: label %q span %v, want %q span %d", i, snaps[i].Label, snaps[i].Span, want, p.Drained)
		}
	}
}

func TestOpenLoopAcceptedBounded(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(4, 4))
	sim := MustNew(cfg)
	res, err := sim.RunOpenLoop(Uniform, 0.3, 500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted <= 0 || res.Accepted > float64(cfg.Planes) {
		t.Errorf("accepted throughput %v out of range", res.Accepted)
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[Pattern]string{
		Uniform: "uniform", Transpose: "transpose", Neighbor: "neighbor", Hotspot: "hotspot",
	} {
		if p.String() != want {
			t.Errorf("%v != %s", p, want)
		}
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern should format")
	}
}

func TestLinkUtilizationConservation(t *testing.T) {
	cfg := cfg4x4()
	sim := MustNew(cfg)
	var msgs []Message
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d, Bytes: 1024})
			}
		}
	}
	res, err := sim.RunBurst(msgs)
	if err != nil {
		t.Fatal(err)
	}
	ls := sim.LinkUtilization()
	if ls.Total != res.LinkTraversals {
		t.Errorf("link stats total %d != link traversals %d", ls.Total, res.LinkTraversals)
	}
	if ls.Max <= 0 || ls.Imbalance() < 1 {
		t.Errorf("stats: max=%d imbalance=%v", ls.Max, ls.Imbalance())
	}
	if len(ls.Loads) == 0 || ls.Loads[0].Flits != ls.Max {
		t.Error("loads must be sorted by decreasing flits")
	}
	if ls.String() == "" {
		t.Error("empty String()")
	}
}

func TestLinkUtilizationNeighborPatternIsLocal(t *testing.T) {
	cfg := cfg4x4()
	sim := MustNew(cfg)
	// Node i -> i+1 in row-major order: most links carry exactly the
	// flits of one message; the wrap column transitions go further.
	if _, err := sim.RunBurst(GenerateTraffic(cfg, Neighbor, 0.2, 200, 9)); err != nil {
		t.Fatal(err)
	}
	ls := sim.LinkUtilization()
	if ls.Total == 0 {
		t.Fatal("no link traffic recorded")
	}
	for _, l := range ls.Loads {
		if cfg.Mesh.HopDist(l.From, l.To) != 1 {
			t.Fatalf("link %d->%d is not a mesh link", l.From, l.To)
		}
	}
}
