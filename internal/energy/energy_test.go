package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"learn2scale/internal/noc"
)

// dynamic is the traffic-proportional part of an energy breakdown:
// everything but leakage.
func dynamic(b Breakdown) float64 { return b.Buffer + b.Switch + b.Link }

func TestEnergyScalesWithTraffic(t *testing.T) {
	m := DefaultModel(64, 16)
	r1 := noc.Result{Cycles: 100, BufferWrites: 50, BufferReads: 50, SwitchTraversals: 60, LinkTraversals: 40}
	r2 := noc.Result{Cycles: 100, BufferWrites: 100, BufferReads: 100, SwitchTraversals: 120, LinkTraversals: 80}
	e1 := dynamic(m.Energy(r1))
	e2 := dynamic(m.Energy(r2))
	if math.Abs(e2-2*e1) > 1e-9 {
		t.Errorf("doubling events must double dynamic energy: %v vs %v", e1, e2)
	}
}

func TestLeakageScalesWithCyclesAndRouters(t *testing.T) {
	m := DefaultModel(64, 16)
	r := noc.Result{Cycles: 1000}
	b := m.Energy(r)
	if b.Leakage != 1000*16*m.RouterLeakPJPerCycle {
		t.Errorf("leakage = %v", b.Leakage)
	}
	if b.Buffer != 0 || b.Link != 0 || b.Switch != 0 {
		t.Error("no traffic must mean no dynamic energy")
	}
}

func TestTotalIsSum(t *testing.T) {
	b := Breakdown{Buffer: 1, Switch: 2, Link: 3, Leakage: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestStringMentionsComponents(t *testing.T) {
	b := Breakdown{Buffer: 1000, Switch: 2000, Link: 3000, Leakage: 4000}
	s := b.String()
	for _, w := range []string{"total", "buf", "xbar", "link", "leak"} {
		if !strings.Contains(s, w) {
			t.Errorf("String() = %q missing %q", s, w)
		}
	}
}

func TestLinkDominatesForLongDistance(t *testing.T) {
	// With default constants, a flit-hop (link+switch+buffer rw at the
	// next router) costs more than ejection alone, so energy must grow
	// with hop count at fixed flit count.
	m := DefaultModel(64, 16)
	near := noc.Result{BufferWrites: 10, BufferReads: 10, SwitchTraversals: 10, LinkTraversals: 0}
	far := noc.Result{BufferWrites: 40, BufferReads: 40, SwitchTraversals: 40, LinkTraversals: 30}
	if dynamic(m.Energy(far)) <= dynamic(m.Energy(near)) {
		t.Error("longer routes must cost more dynamic energy")
	}
}

// Property: energy is non-negative and monotone in every event count.
func TestQuickEnergyMonotone(t *testing.T) {
	m := DefaultModel(64, 16)
	f := func(bw, br, sw, lk uint16, cyc uint16) bool {
		r := noc.Result{
			Cycles:           int64(cyc),
			BufferWrites:     int64(bw),
			BufferReads:      int64(br),
			SwitchTraversals: int64(sw),
			LinkTraversals:   int64(lk),
		}
		b := m.Energy(r)
		if b.Total() < 0 {
			return false
		}
		r.LinkTraversals++
		return m.Energy(r).Total() > b.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
