package core

import (
	"bytes"
	"fmt"
	"math/rand"

	"learn2scale/internal/cmp"
	"learn2scale/internal/data"
	"learn2scale/internal/fault"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/partition"
	"learn2scale/internal/sparsity"
)

// DegradedAccuracy evaluates the test accuracy the model delivers when
// the listed activation transfers were never received (the consuming
// core zero-filled them) and the listed logical cores are dead.
//
// A lost transfer (src i → dst j) at plan layer k means core j computed
// layer k with zeros where core i's input slice should have been —
// functionally identical to zeroing the (i, j) weight block, which is
// how it is modelled here (on a clone; m.Net is not touched). A dead
// core produces zeros for its whole output slice at every layer, so its
// weight rows and bias entries are cleared throughout.
//
// With nothing failed this is exactly m.Accuracy.
func (m *TrainedModel) DegradedAccuracy(ds *data.Dataset, failed []cmp.FailedTransfer, deadCores []int) (float64, error) {
	if len(failed) == 0 && len(deadCores) == 0 {
		return m.Accuracy, nil
	}
	var buf bytes.Buffer
	if err := m.Net.Save(&buf); err != nil {
		return 0, fmt.Errorf("core: degraded accuracy: %w", err)
	}
	clone := m.Spec.Build(rand.New(rand.NewSource(0)))
	if err := clone.Load(&buf); err != nil {
		return 0, fmt.Errorf("core: degraded accuracy: %w", err)
	}
	var syn []nn.Layer
	for _, l := range clone.Layers {
		switch l.(type) {
		case *nn.Conv2D, *nn.FullyConnected:
			syn = append(syn, l)
		}
	}
	if len(syn) != len(m.Plan.Layers) {
		return 0, fmt.Errorf("core: network has %d synaptic layers, plan has %d",
			len(syn), len(m.Plan.Layers))
	}
	for _, ft := range failed {
		if ft.Layer < 0 || ft.Layer >= len(syn) {
			return 0, fmt.Errorf("core: failed transfer at layer %d of a %d-layer plan",
				ft.Layer, len(syn))
		}
		lp := m.Plan.Layers[ft.Layer]
		if lp.InRanges == nil {
			continue // first synaptic layer: input is broadcast, not transferred
		}
		if err := zeroTransferBlock(syn[ft.Layer], lp, ft.Src, ft.Dst); err != nil {
			return 0, err
		}
	}
	for _, d := range deadCores {
		if d < 0 || d >= m.Plan.Cores {
			return 0, fmt.Errorf("core: dead core %d on a %d-core plan", d, m.Plan.Cores)
		}
		for k, lp := range m.Plan.Layers {
			zeroCoreOutputs(syn[k], lp, d)
		}
	}
	return clone.Accuracy(ds.TestX, ds.TestY), nil
}

// zeroTransferBlock clears the weights through which core dst's outputs
// read core src's input slice at one layer.
func zeroTransferBlock(l nn.Layer, lp partition.LayerPartition, src, dst int) error {
	switch t := l.(type) {
	case *nn.FullyConnected:
		in, _ := t.InOut()
		sparsity.NewLayerGroups(t.Name(), t.Weight(), lp.OutRanges, lp.InRanges, in, 1, 1).
			ZeroBlock(src, dst)
	case *nn.Conv2D:
		g := t.Geom()
		if t.Groups() == 1 {
			sparsity.NewLayerGroups(t.Name(), t.Weight(), lp.OutRanges, lp.InRanges, g.InC, g.KH, g.KW).
				ZeroBlock(src, dst)
			return nil
		}
		// Grouped conv stores (OutC × InC/groups × KH × KW): output
		// channel o reads only its group's input-channel window, so the
		// block is the window's intersection with src's input range.
		grp := t.Groups()
		inPerG, outPerG := g.InC/grp, g.OutC/grp
		kk := g.KH * g.KW
		w := t.Weight().W.Data
		in := lp.InRanges[src]
		for o := lp.OutRanges[dst].Lo; o < lp.OutRanges[dst].Hi; o++ {
			winLo := (o / outPerG) * inPerG
			lo, hi := max(in.Lo, winLo), min(in.Hi, winLo+inPerG)
			if lo >= hi {
				continue
			}
			base := o * inPerG * kk
			clear(w[base+(lo-winLo)*kk : base+(hi-winLo)*kk])
		}
	default:
		return fmt.Errorf("core: cannot zero transfer block of layer %T", l)
	}
	return nil
}

// zeroCoreOutputs silences logical core d at one layer: the weights and
// bias producing its output slice go to zero, so every consumer — local
// or remote — sees the zeros a dead tile emits.
func zeroCoreOutputs(l nn.Layer, lp partition.LayerPartition, d int) {
	r := lp.OutRanges[d]
	if r.Len() == 0 {
		return
	}
	params := l.Params() // [weight, bias] for both conv and FC
	w := params[0].W
	per := w.Len() / lp.Shape.OutC
	clear(w.Data[r.Lo*per : r.Hi*per])
	clear(params[1].W.Data[r.Lo:r.Hi])
}

// FaultOptions configures the fault-robustness sweep: the shared
// sweep network trained under all four schemes, then simulated on the
// mesh across a grid of transient fault rates. Obs receives one gauge
// per (scheme, rate) cell — accuracy, cycles, retransmits, lost
// transfers.
type FaultOptions struct {
	SweepNetwork

	// Rates are the per-flit drop probabilities to sweep, ascending and
	// starting at 0 so the fault-free row anchors the table. Decisions
	// are threshold-coupled across rates (see internal/fault): the grid
	// is a nested sequence of fault patterns, not independent samples.
	Rates []float64
	// FaultSeed drives the fault scenarios; independent of the training
	// seed so the two can be varied separately.
	FaultSeed int64
	// RetryBudget overrides the per-packet retransmission budget of the
	// swept scenarios; 0 keeps fault.DefaultRetryBudget.
	RetryBudget int
}

// DefaultFaultOptions returns the headline fault sweep: the mid-size
// ConvNet on the paper's 16-core mesh, rates spanning no faults to a
// clearly lossy network.
func DefaultFaultOptions() FaultOptions {
	return FaultOptions{
		SweepNetwork: defaultSweepNetwork(),
		Rates:        []float64{0, 0.01, 0.02, 0.05, 0.1},
		FaultSeed:    5,
		RetryBudget:  4,
	}
}

// QuickFaultOptions shrinks the sweep for smoke tests: the quick sweep
// network and three rates.
func QuickFaultOptions() FaultOptions {
	o := DefaultFaultOptions()
	o.SweepNetwork = quickSweepNetwork()
	o.Rates = []float64{0, 0.02, 0.1}
	return o
}

// FaultRow is one cell of the fault sweep: one scheme simulated at one
// fault rate.
type FaultRow struct {
	Scheme          Scheme
	Rate            float64
	Accuracy        float64 // degraded test accuracy after zero-filling lost transfers
	TotalCycles     int64
	CommCycles      int64
	Retransmits     int64
	LostPackets     int64
	FailedTransfers int
}

func schemeSlug(s Scheme) string {
	switch s {
	case Baseline:
		return "baseline"
	case StructureLevel:
		return "structure"
	case SS:
		return "ss"
	case SSMask:
		return "ssmask"
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// FaultSweep trains the four schemes once and simulates each across
// opt.Rates, evaluating the accuracy the model retains after the
// network's undelivered transfers are zero-filled (graceful
// degradation). Rows come back scheme-major in scheme, then rate,
// order — FaultSweepTable formats them directly.
//
// The paper's robustness argument falls out of the sweep: schemes that
// localize traffic (structural grouping, distance-aware SS_Mask) inject
// fewer and shorter transfers, so at equal fault rates they lose fewer
// transfers and keep more accuracy than the all-to-all Baseline.
func FaultSweep(opt FaultOptions) ([]FaultRow, error) {
	if opt.Cores <= 0 {
		return nil, fmt.Errorf("core: fault sweep needs positive core count, got %d", opt.Cores)
	}
	if len(opt.Rates) == 0 {
		return nil, fmt.Errorf("core: fault sweep needs at least one rate")
	}
	models, ds, err := opt.trainSchemes("faults")
	if err != nil {
		return nil, err
	}

	// One cell per (scheme, rate): simulate the trained plan under the
	// fault scenario, then evaluate the accuracy implied by the
	// transfers the network failed to deliver. Each cell builds its own
	// system (detached registry) so cells are free to run concurrently;
	// results land in grid order regardless.
	nr := len(opt.Rates)
	rows, err := sweep(len(models)*nr, opt.Log == nil, func(idx int) (FaultRow, error) {
		si, ri := idx/nr, idx%nr
		m, rate := models[si], opt.Rates[ri]
		cfg := cmp.DefaultConfig(opt.Cores)
		cfg.Fault = fault.Scenario(rate, opt.FaultSeed)
		cfg.Fault.RetryBudget = opt.RetryBudget
		sys, err := cmp.New(cfg)
		if err != nil {
			return FaultRow{}, err
		}
		rep, err := sys.RunPlan(m.Plan)
		if err != nil {
			return FaultRow{}, fmt.Errorf("core: faults/%v@%g: %w", m.Scheme, rate, err)
		}
		acc, err := m.DegradedAccuracy(ds, rep.Failed, nil)
		if err != nil {
			return FaultRow{}, err
		}
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "   faults: %s @ rate %g: acc %.3f, %d retransmits, %d lost transfers\n",
				m.Scheme, rate, acc, rep.NoC.Retransmits, len(rep.Failed))
		}
		row := FaultRow{
			Scheme: m.Scheme, Rate: rate, Accuracy: acc,
			TotalCycles: rep.TotalCycles(), CommCycles: rep.CommCycles,
			Retransmits: rep.NoC.Retransmits, LostPackets: rep.NoC.LostPackets,
			FailedTransfers: len(rep.Failed),
		}
		if r := opt.Obs; r != nil {
			// Names are fixed by grid position (not by outcome), so the
			// metric set is identical across worker counts and runs.
			pfx := fmt.Sprintf("faults.%s.rate%02d.", schemeSlug(m.Scheme), ri)
			r.Gauge(pfx+"rate", obs.Stable).Set(rate)
			r.Gauge(pfx+"accuracy", obs.Stable).Set(acc)
			r.Gauge(pfx+"total_cycles", obs.Stable).Set(float64(row.TotalCycles))
			r.Gauge(pfx+"comm_cycles", obs.Stable).Set(float64(row.CommCycles))
			r.Gauge(pfx+"retransmits", obs.Stable).Set(float64(row.Retransmits))
			r.Gauge(pfx+"lost_transfers", obs.Stable).Set(float64(row.FailedTransfers))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FaultSweepTable formats the sweep as one row per (scheme, rate).
func FaultSweepTable(rows []FaultRow) Table {
	t := Table{
		Title: "Graceful degradation under transient NoC faults " +
			"(per-flit drop rate; bounded retransmission with exponential backoff)",
		Header: []string{"Scheme", "Rate", "Accu.", "Total cyc", "Comm cyc", "Retrans", "Lost xfers"},
	}
	for _, r := range rows {
		t.AddRow(
			r.Scheme.String(),
			fmt.Sprintf("%g", r.Rate),
			fmtAcc(r.Accuracy),
			fmt.Sprintf("%d", r.TotalCycles),
			fmt.Sprintf("%d", r.CommCycles),
			fmt.Sprintf("%d", r.Retransmits),
			fmt.Sprintf("%d", r.FailedTransfers),
		)
	}
	return t
}
