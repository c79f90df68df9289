package core

import (
	"math"
	"strings"
	"testing"

	"learn2scale/internal/cmp"
)

// miniPipelineOptions shrinks the sweep far enough for unit tests.
func miniPipelineOptions() PipelineSweepOptions {
	o := DefaultPipelineSweepOptions()
	o.ImgSize = 8
	o.Train, o.Test = 40, 24
	o.SGD.Epochs = 2
	o.Depths = []int{1, 2, 3}
	o.Batches = 4
	return o
}

// The sweep's grid properties: rows come back scheme-major in grid
// order; the depth-1 row of every scheme replays the barrier schedule
// back-to-back, so its measured throughput equals the sequential
// replay anchor and its speedup is exactly 1; fill + steady + drain
// telescope to the total everywhere.
func TestPipelineSweepMiniGrid(t *testing.T) {
	opt := miniPipelineOptions()
	rows, err := PipelineSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{Baseline, StructureLevel, SS, SSMask}
	nd := len(opt.Depths)
	if len(rows) != len(schemes)*nd {
		t.Fatalf("%d rows, want %d", len(rows), len(schemes)*nd)
	}
	for si, s := range schemes {
		for di, depth := range opt.Depths {
			r := rows[si*nd+di]
			if r.Scheme != s || r.Depth != depth {
				t.Fatalf("row %d = (%v, %d), want (%v, %d)", si*nd+di, r.Scheme, r.Depth, s, depth)
			}
			if r.Batches != opt.Batches {
				t.Errorf("%v depth %d: batches %d, want %d", s, depth, r.Batches, opt.Batches)
			}
			if r.ThroughputPerMCycle <= 0 || math.IsNaN(r.ThroughputPerMCycle) {
				t.Errorf("%v depth %d: throughput %v", s, depth, r.ThroughputPerMCycle)
			}
			if got := r.FillCycles + r.SteadyCycles + r.DrainCycles; got != r.TotalCycles {
				t.Errorf("%v depth %d: fill %d + steady %d + drain %d != total %d",
					s, depth, r.FillCycles, r.SteadyCycles, r.DrainCycles, r.TotalCycles)
			}
			if r.MeanOccupancy <= 0 || r.MeanOccupancy > 1 {
				t.Errorf("%v depth %d: mean occupancy %v out of (0,1]", s, depth, r.MeanOccupancy)
			}
			if depth == 1 && math.Abs(r.Speedup-1) > 1e-9 {
				t.Errorf("%v depth-1 speedup %v, want exactly 1 (barrier replay)", s, r.Speedup)
			}
		}
	}

	tbl := PipelineSweepTable(rows).Format()
	for _, want := range []string{"Pipelined inference", "Depth", "Inf/Mcycle", "Speedup", "SS_Mask", "Baseline"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

// The model's plan pipelined at depth 1 with one batch, on the system
// Simulate builds, is the plain barrier simulation: identical
// per-layer results and total cycles.
func TestSimulatePipelineDepthOneMatchesSimulate(t *testing.T) {
	m := trainedTiny(t)
	barrier, err := m.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := m.system(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunPipeline(m.Plan, cmp.PipelineOptions{Depth: 1, Batches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inference.TotalCycles() != barrier.TotalCycles() {
		t.Errorf("pipelined depth-1 total %d != barrier %d",
			rep.Inference.TotalCycles(), barrier.TotalCycles())
	}
	if len(rep.Inference.Layers) != len(barrier.Layers) {
		t.Fatalf("layer count %d != %d", len(rep.Inference.Layers), len(barrier.Layers))
	}
	for k := range barrier.Layers {
		if rep.Inference.Layers[k].CommCycles != barrier.Layers[k].CommCycles ||
			rep.Inference.Layers[k].ComputeCycles != barrier.Layers[k].ComputeCycles {
			t.Errorf("layer %d: pipelined (%d,%d) != barrier (%d,%d)", k,
				rep.Inference.Layers[k].ComputeCycles, rep.Inference.Layers[k].CommCycles,
				barrier.Layers[k].ComputeCycles, barrier.Layers[k].CommCycles)
		}
	}
}
