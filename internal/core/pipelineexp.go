package core

import (
	"fmt"

	"learn2scale/internal/cmp"
	"learn2scale/internal/obs"
)

// PipelineSweepOptions configures the pipelined-inference sweep: the
// shared sweep network trained under the four schemes once, then each
// simulated through the stage scheduler at every depth in Depths with
// Batches inferences in flight. Obs receives one gauge per (scheme,
// depth) cell.
type PipelineSweepOptions struct {
	SweepNetwork

	// Depths are the pipeline depths to sweep. Depth 1 is the barrier
	// schedule replayed Batches times and anchors the speedup column.
	Depths []int
	// Batches is the number of in-flight inferences per cell; it needs
	// to comfortably exceed the deepest pipeline so the steady-state
	// throughput sample dominates fill and drain.
	Batches int
}

// DefaultPipelineSweepOptions returns the headline pipeline sweep:
// the mid-size ConvNet on the paper's 16-core mesh at depths 1–4.
func DefaultPipelineSweepOptions() PipelineSweepOptions {
	return PipelineSweepOptions{
		SweepNetwork: defaultSweepNetwork(),
		Depths:       []int{1, 2, 3, 4},
		Batches:      12,
	}
}

// QuickPipelineSweepOptions shrinks the sweep for smoke tests.
func QuickPipelineSweepOptions() PipelineSweepOptions {
	return PipelineSweepOptions{
		SweepNetwork: quickSweepNetwork(),
		Depths:       []int{1, 2, 4},
		Batches:      8,
	}
}

// PipelineRow is one cell of the pipeline sweep: one scheme run
// through the stage scheduler at one depth.
type PipelineRow struct {
	Scheme  Scheme
	Depth   int
	Batches int

	TotalCycles  int64
	FillCycles   int64
	SteadyCycles int64
	DrainCycles  int64

	// ThroughputPerMCycle is the measured steady-state completion rate
	// (inferences per 10⁶ cycles) between the first and last batch.
	ThroughputPerMCycle float64
	// Speedup normalizes against sequential single-pass replay of the
	// same scheme (1e6 / barrier-run cycles): how much the pipeline's
	// stage overlap buys over re-running the whole mesh per inference.
	Speedup float64
	// MeanOccupancy averages the per-stage compute occupancy — how much
	// of the pipeline's window the stages spent computing rather than
	// stalled on transfers or upstream bubbles.
	MeanOccupancy float64
}

// PipelineSweep trains the four schemes once and runs each through the
// pipelined stage scheduler at every depth in opt.Depths. Rows come
// back scheme-major in scheme, then depth, order — PipelineSweepTable
// formats them directly.
//
// The depth-1 rows replay the barrier schedule per batch, so the
// speedup column reads directly as "pipelining versus not": schemes
// whose layer costs balance well across stages approach depth× at
// the front of the sweep, then flatten where the widest stage (or the
// cross-stage transfer) becomes the bottleneck.
func PipelineSweep(opt PipelineSweepOptions) ([]PipelineRow, error) {
	if opt.Cores <= 0 {
		return nil, fmt.Errorf("core: pipeline sweep needs positive core count, got %d", opt.Cores)
	}
	if len(opt.Depths) == 0 {
		return nil, fmt.Errorf("core: pipeline sweep needs at least one depth")
	}
	batches := opt.Batches
	if batches <= 0 {
		batches = 8
	}
	models, _, err := opt.trainSchemes("pipeline")
	if err != nil {
		return nil, err
	}

	// The speedup anchor: one barrier run per scheme, measuring the
	// sequential replay throughput the pipeline is compared against.
	replay := make([]float64, len(models))
	for i, m := range models {
		sys, err := cmp.New(cmp.DefaultConfig(opt.Cores))
		if err != nil {
			return nil, err
		}
		rep, err := sys.RunPlan(m.Plan)
		if err != nil {
			return nil, fmt.Errorf("core: pipeline/%v barrier: %w", m.Scheme, err)
		}
		replay[i] = 1e6 / float64(rep.TotalCycles())
	}

	// One cell per (scheme, depth). Each cell builds its own system so
	// cells are free to run concurrently; results land in grid order.
	nd := len(opt.Depths)
	rows, err := sweep(len(models)*nd, opt.Log == nil, func(idx int) (PipelineRow, error) {
		si, di := idx/nd, idx%nd
		m, depth := models[si], opt.Depths[di]
		sys, err := cmp.New(cmp.DefaultConfig(opt.Cores))
		if err != nil {
			return PipelineRow{}, err
		}
		rep, err := sys.RunPipeline(m.Plan, cmp.PipelineOptions{Depth: depth, Batches: batches})
		if err != nil {
			return PipelineRow{}, fmt.Errorf("core: pipeline/%v depth %d: %w", m.Scheme, depth, err)
		}
		occ := 0.0
		for _, st := range rep.Stages {
			occ += st.Occupancy
		}
		occ /= float64(len(rep.Stages))
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "   pipeline: %s depth %d: %.3f inf/Mcycle (%.2fx replay)\n",
				m.Scheme, depth, rep.ThroughputPerMCycle, rep.ThroughputPerMCycle/replay[si])
		}
		row := PipelineRow{
			Scheme: m.Scheme, Depth: depth, Batches: batches,
			TotalCycles: rep.TotalCycles, FillCycles: rep.FillCycles,
			SteadyCycles: rep.SteadyCycles, DrainCycles: rep.DrainCycles,
			ThroughputPerMCycle: rep.ThroughputPerMCycle,
			Speedup:             rep.ThroughputPerMCycle / replay[si],
			MeanOccupancy:       occ,
		}
		if r := opt.Obs; r != nil {
			// Names are fixed by grid position (not by outcome), so the
			// metric set is identical across worker counts and runs.
			pfx := fmt.Sprintf("pipeline.%s.d%02d.", schemeSlug(m.Scheme), di)
			r.Gauge(pfx+"depth", obs.Stable).Set(float64(depth))
			r.Gauge(pfx+"total_cycles", obs.Stable).Set(float64(row.TotalCycles))
			r.Gauge(pfx+"fill_cycles", obs.Stable).Set(float64(row.FillCycles))
			r.Gauge(pfx+"steady_cycles", obs.Stable).Set(float64(row.SteadyCycles))
			r.Gauge(pfx+"drain_cycles", obs.Stable).Set(float64(row.DrainCycles))
			r.Gauge(pfx+"throughput_per_mcycle", obs.Stable).Set(row.ThroughputPerMCycle)
			r.Gauge(pfx+"speedup", obs.Stable).Set(row.Speedup)
			r.Gauge(pfx+"occupancy", obs.Stable).Set(row.MeanOccupancy)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PipelineSweepTable formats the sweep as one row per (scheme, depth).
func PipelineSweepTable(rows []PipelineRow) Table {
	t := Table{
		Title: "Pipelined inference: steady-state throughput vs pipeline depth " +
			"(stages pinned to disjoint core blocks; speedup vs sequential single-pass replay)",
		Header: []string{"Scheme", "Depth", "Inf/Mcycle", "Speedup", "Occup.", "Fill cyc", "Steady cyc", "Drain cyc", "Total cyc"},
	}
	for _, r := range rows {
		t.AddRow(
			r.Scheme.String(),
			fmt.Sprintf("%d", r.Depth),
			fmt.Sprintf("%.3f", r.ThroughputPerMCycle),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.2f", r.MeanOccupancy),
			fmt.Sprintf("%d", r.FillCycles),
			fmt.Sprintf("%d", r.SteadyCycles),
			fmt.Sprintf("%d", r.DrainCycles),
			fmt.Sprintf("%d", r.TotalCycles),
		)
	}
	return t
}
