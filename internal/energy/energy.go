// Package energy is a DSENT-like energy model for the mesh NoC: it
// converts the event counts produced by the internal/noc simulator
// (buffer reads/writes, crossbar traversals, link traversals) into
// picojoule estimates using per-bit energy constants representative of
// a 32 nm low-power process — the technology class DSENT targets and
// the paper's platform implies.
//
// The paper reports *relative* interconnect energy (reductions vs the
// traditional-parallelization baseline), which depends only on the
// event-count ratios; the absolute constants set the scale.
package energy

import (
	"fmt"

	"learn2scale/internal/noc"
)

// Model holds per-event energy constants. All energies are picojoules.
type Model struct {
	FlitBits int

	// Dynamic energy per bit per event.
	BufWritePJPerBit float64
	BufReadPJPerBit  float64
	XbarPJPerBit     float64
	LinkPJPerBit     float64

	// Static leakage per router per cycle.
	RouterLeakPJPerCycle float64
	Routers              int
}

// DefaultModel returns 32 nm-class constants for the given flit width
// and router count.
func DefaultModel(flitBytes, routers int) Model {
	return Model{
		FlitBits:             flitBytes * 8,
		BufWritePJPerBit:     0.0055,
		BufReadPJPerBit:      0.0045,
		XbarPJPerBit:         0.0070,
		LinkPJPerBit:         0.0120, // 1 mm inter-tile link
		RouterLeakPJPerCycle: 1.0,
		Routers:              routers,
	}
}

// Breakdown is an energy estimate in picojoules, by component.
type Breakdown struct {
	Buffer  float64
	Switch  float64
	Link    float64
	Leakage float64
}

// Total returns the summed energy in picojoules.
func (b Breakdown) Total() float64 {
	return b.Buffer + b.Switch + b.Link + b.Leakage
}

// String formats the breakdown in nanojoules for readability.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fnJ (buf=%.1f xbar=%.1f link=%.1f leak=%.1f)",
		b.Total()/1e3, b.Buffer/1e3, b.Switch/1e3, b.Link/1e3, b.Leakage/1e3)
}

// Energy converts a NoC run's event counts into an energy breakdown.
func (m Model) Energy(r noc.Result) Breakdown {
	bits := float64(m.FlitBits)
	return Breakdown{
		Buffer:  bits * (float64(r.BufferWrites)*m.BufWritePJPerBit + float64(r.BufferReads)*m.BufReadPJPerBit),
		Switch:  bits * float64(r.SwitchTraversals) * m.XbarPJPerBit,
		Link:    bits * float64(r.LinkTraversals) * m.LinkPJPerBit,
		Leakage: float64(r.Cycles) * float64(m.Routers) * m.RouterLeakPJPerCycle,
	}
}
