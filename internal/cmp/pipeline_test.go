package cmp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"learn2scale/internal/fault"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/obs"
	"learn2scale/internal/partition"
	"learn2scale/internal/timeline"
)

// pipelinePlans builds one plan per parallelization scheme the paper
// evaluates, using structural proxies for the learned masks (this
// package cannot import internal/core): dense = Baseline, AlexNet's
// channel groups = StructureLevel, a seeded random block mask = SS, a
// distance-decay band mask = SSMask.
func pipelinePlans(cores int) map[string]*partition.Plan {
	plans := map[string]*partition.Plan{
		"dense":   partition.NewPlan(netzoo.CaffeNet(), cores),
		"grouped": partition.NewPlan(netzoo.AlexNet(), cores),
	}

	rnd := partition.NewPlan(netzoo.LeNet(), cores)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for k := 1; k < len(rnd.Layers); k++ {
		m := make(partition.BlockMask, cores)
		for i := range m {
			m[i] = make([]bool, cores)
			for j := range m[i] {
				m[i][j] = i == j || next()%4 == 0
			}
		}
		rnd.SetMask(k, m)
	}
	plans["random-sparse"] = rnd

	band := partition.NewPlan(netzoo.MLP(), cores)
	for k := 1; k < len(band.Layers); k++ {
		m := make(partition.BlockMask, cores)
		for i := range m {
			m[i] = make([]bool, cores)
			for j := range m[i] {
				d := i - j
				if d < 0 {
					d = -d
				}
				m[i][j] = d <= 2
			}
		}
		band.SetMask(k, m)
	}
	plans["distance-decay"] = band
	return plans
}

// runPipe runs RunPipeline with fresh obs and timeline attached and
// returns the report plus both serialized records. session forces
// single-stage runs through the NoC session instead of resolving their
// bursts up front.
func runPipe(t *testing.T, cfg Config, p *partition.Plan, opt PipelineOptions, session bool) (PipelineReport, []byte, []byte) {
	t.Helper()
	reg, sink := obs.New(), timeline.NewSink()
	cfg.Obs, cfg.Timeline = reg, sink
	sys := MustNew(cfg)
	sys.sessionOnly = session
	rep, err := sys.RunPipeline(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	ob, tb := recordBytes(t, reg, sink)
	return rep, ob, tb
}

func recordBytes(t *testing.T, reg *obs.Registry, sink *timeline.Sink) ([]byte, []byte) {
	t.Helper()
	var ob, tb bytes.Buffer
	if err := reg.Record("test", nil, false).WriteJSON(&ob); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteRecord(&tb, "test", nil); err != nil {
		t.Fatal(err)
	}
	return ob.Bytes(), tb.Bytes()
}

// singleStageFaults are the fault regimes the single-stage
// differential tests sweep: none, transient flit drops with
// retransmission, a dead compute tile (filtered before injection) and a
// dead link (rerouted, disconnected pairs lost).
var singleStageFaults = []struct {
	name string
	cfg  *fault.Config
}{
	{"fault-free", nil},
	{"drops", &fault.Config{Seed: 9, DropProb: 0.03, RetryBudget: 2}},
	{"dead-core", &fault.Config{Seed: 9, DeadCores: []int{5}}},
	{"dead-link", &fault.Config{Seed: 9, DeadLinks: []fault.Link{{A: 1, B: 2}}, DropProb: 0.01, RetryBudget: 1}},
}

// checkUpFrontMatchesSession runs a single-stage schedule twice — its
// bursts resolved up front on pooled simulators (the default), and
// injected into one NoC session like a multi-stage run's — and
// requires the reports, stable obs records and timeline records to be
// identical.
func checkUpFrontMatchesSession(t *testing.T, label string, cfg Config, plan *partition.Plan, opt PipelineOptions) PipelineReport {
	t.Helper()
	want, wantObs, wantTL := runPipe(t, cfg, plan, opt, true)
	got, gotObs, gotTL := runPipe(t, cfg, plan, opt, false)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: up-front report differs from session\nsession:  %+v\nup-front: %+v", label, want, got)
	}
	if !bytes.Equal(wantObs, gotObs) {
		t.Errorf("%s: stable obs records differ\n--- session\n%s\n--- up-front\n%s", label, wantObs, gotObs)
	}
	if !bytes.Equal(wantTL, gotTL) {
		t.Errorf("%s: timeline records differ (%d vs %d bytes)", label, len(wantTL), len(gotTL))
	}
	return got
}

// heavyPlan reports whether a pipelinePlans scheme simulates a
// full-scale network (CaffeNet, AlexNet). Those run one batch,
// fault-free and under transient drops only; the LeNet and MLP schemes
// cover every regime at every batch count and under placement.
func heavyPlan(name string) bool { return name == "dense" || name == "grouped" }

// TestRunPipelineDepthOneMatchesBarrier is the single scheduler's
// differential contract. A single-stage (barrier) schedule never
// overlaps two bursts, so RunPipeline resolves them concurrently up
// front instead of through the NoC session; the two paths must agree
// bit for bit — for every parallelization scheme, one and three
// batches, fault-free and under transient drops, a dead core and a
// dead link. RunPlan is the depth-1 single-batch case.
func TestRunPipelineDepthOneMatchesBarrier(t *testing.T) {
	for name, plan := range pipelinePlans(16) {
		for i, fc := range singleStageFaults {
			for _, batches := range []int{1, 3} {
				if heavyPlan(name) && (batches > 1 || i > 1) {
					continue
				}
				cfg := DefaultConfig(16)
				cfg.Fault = fc.cfg
				label := fmt.Sprintf("%s/%s/batches=%d", name, fc.name, batches)
				got := checkUpFrontMatchesSession(t, label, cfg, plan, PipelineOptions{Depth: 1, Batches: batches})
				if fc.name == "dead-core" && len(got.Failed) == 0 {
					t.Errorf("%s: dead core lost no transfers", label)
				}
			}
		}
	}
}

// TestSystemReuseDeterminism: a System reused across RunPipeline calls
// — as each served model's is — reports exactly what a fresh one does,
// on both the up-front (depth 1) and the session (depth 2) path.
func TestSystemReuseDeterminism(t *testing.T) {
	plan := partition.NewPlan(netzoo.MLP(), 4)
	reused := MustNew(DefaultConfig(4))
	for _, opt := range []PipelineOptions{{Depth: 2, Batches: 3}, {Depth: 1, Batches: 2}} {
		want, err := MustNew(DefaultConfig(4)).RunPipeline(plan, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := reused.RunPipeline(plan, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v run %d: reused system diverged from a fresh one", opt, i)
			}
		}
	}
}

// The same contract under an explicit non-identity placement, which
// permutes routes and maps lost transfers back to logical cores.
func TestRunPipelineDepthOnePlaced(t *testing.T) {
	place := make(partition.Placement, 16)
	for i := range place {
		place[i] = (i*5 + 3) % 16 // 5 ⟂ 16: a fixed permutation
	}
	faulty := &fault.Config{Seed: 4, DeadCores: []int{5}, DropProb: 0.02, RetryBudget: 1}
	for name, plan := range pipelinePlans(16) {
		if heavyPlan(name) {
			continue
		}
		for _, fc := range []*fault.Config{nil, faulty} {
			for _, batches := range []int{1, 3} {
				cfg := DefaultConfig(16)
				cfg.Fault = fc
				label := fmt.Sprintf("%s/faulty=%v/batches=%d", name, fc != nil, batches)
				checkUpFrontMatchesSession(t, label, cfg, plan, PipelineOptions{Depth: 1, Batches: batches, Place: place})
			}
		}
	}
}

// Fill, steady and drain must telescope exactly to the total at every
// depth and batch count, and completions must be strictly increasing
// (each batch occupies the last stage after its predecessor).
func TestRunPipelineTelescoping(t *testing.T) {
	plan := partition.NewPlan(netzoo.MLP(), 16)
	cfg := DefaultConfig(16)
	sys := MustNew(cfg)
	for _, depth := range []int{1, 2, 3} {
		for _, batches := range []int{1, 2, 5} {
			rep, err := sys.RunPipeline(plan, PipelineOptions{Depth: depth, Batches: batches})
			if err != nil {
				t.Fatalf("depth %d batches %d: %v", depth, batches, err)
			}
			if got := rep.FillCycles + rep.SteadyCycles + rep.DrainCycles; got != rep.TotalCycles {
				t.Errorf("depth %d batches %d: fill %d + steady %d + drain %d = %d, total %d",
					depth, batches, rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, got, rep.TotalCycles)
			}
			if len(rep.Completions) != batches {
				t.Fatalf("depth %d batches %d: %d completions", depth, batches, len(rep.Completions))
			}
			if rep.TotalCycles != rep.Completions[batches-1] {
				t.Errorf("depth %d batches %d: total %d != last completion %d",
					depth, batches, rep.TotalCycles, rep.Completions[batches-1])
			}
			for b := 1; b < batches; b++ {
				if rep.Completions[b] <= rep.Completions[b-1] {
					t.Errorf("depth %d batches %d: completion[%d]=%d not after completion[%d]=%d",
						depth, batches, b, rep.Completions[b], b-1, rep.Completions[b-1])
				}
			}
			if batches == 1 && (rep.SteadyCycles != 0 || rep.DrainCycles != 0 || rep.FillCycles != rep.TotalCycles) {
				t.Errorf("depth %d single batch: fill %d steady %d drain %d total %d",
					depth, rep.FillCycles, rep.SteadyCycles, rep.DrainCycles, rep.TotalCycles)
			}
			for s, st := range rep.Stages {
				if st.Occupancy < 0 || st.Occupancy > 1+1e-9 {
					t.Errorf("depth %d batches %d: stage %d occupancy %v", depth, batches, s, st.Occupancy)
				}
			}
		}
	}
}

// Pipelining AlexNet must beat single-pass replay: the measured
// steady-state rate at depth ≥ 4 exceeds 1/latency of the barrier
// model — the speedup the pipeline exists to deliver. Depth 1 with
// many batches must also degenerate to exactly the replay rate.
func TestRunPipelineThroughputBeatsReplay(t *testing.T) {
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	cfg := DefaultConfig(16)
	sys := MustNew(cfg)
	barrier, err := sys.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	replay := 1e6 / float64(barrier.TotalCycles())

	d1, err := sys.RunPipeline(plan, PipelineOptions{Depth: 1, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Depth-1 batches are strictly sequential barrier runs, so each
	// completion interval is exactly one barrier latency.
	if d1.SteadyCycles+d1.DrainCycles != 3*barrier.TotalCycles() {
		t.Errorf("depth-1 inter-completion span %d, want 3×%d",
			d1.SteadyCycles+d1.DrainCycles, barrier.TotalCycles())
	}

	d4, err := sys.RunPipeline(plan, PipelineOptions{Depth: 4, Batches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d4.ThroughputPerMCycle <= replay {
		t.Errorf("depth-4 throughput %.3f inf/Mcycle does not beat replay %.3f",
			d4.ThroughputPerMCycle, replay)
	}
	if d4.ThroughputPerMCycle <= d1.ThroughputPerMCycle {
		t.Errorf("depth-4 throughput %.3f not above depth-1 %.3f",
			d4.ThroughputPerMCycle, d1.ThroughputPerMCycle)
	}
}

// Report.PipelinedThroughput is an analytic bottleneck bound computed
// from per-layer times; the simulated schedule can only be slower
// (contention, stage imbalance, integer core splits). Assert the bound
// holds and that the estimate stays within a documented factor of the
// measurement for a deep pipeline — the check that keeps the old
// estimator honest now that throughput is simulated.
func TestPipelinedThroughputEstimateVsSimulation(t *testing.T) {
	plan := partition.NewPlan(netzoo.AlexNet(), 16)
	sys := MustNew(DefaultConfig(16))
	rep, err := sys.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	est := rep.PipelinedThroughput()

	sim, err := sys.RunPipeline(plan, PipelineOptions{Depth: 4, Batches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ThroughputPerMCycle > est.InputsPerMCycle*1.001 {
		t.Errorf("simulated throughput %.3f exceeds the analytic upper bound %.3f",
			sim.ThroughputPerMCycle, est.InputsPerMCycle)
	}
	// The per-layer bound assumes one stage per layer and zero
	// contention; a 4-stage pipeline on real hardware sits well below
	// it, but not absurdly so. 20× is the documented envelope.
	if sim.ThroughputPerMCycle < est.InputsPerMCycle/20 {
		t.Errorf("simulated throughput %.3f more than 20× below the estimate %.3f — estimator or scheduler broken",
			sim.ThroughputPerMCycle, est.InputsPerMCycle)
	}
}

// Faulty pipelined runs must conserve packets and report coherent
// failure bookkeeping at depth > 1.
func TestRunPipelineFaulty(t *testing.T) {
	plan := partition.NewPlan(netzoo.CaffeNet(), 16)
	cfg := DefaultConfig(16)
	cfg.Fault = &fault.Config{Seed: 3, DropProb: 0.05, RetryBudget: 1, DeadCores: []int{5}}
	rep, err := MustNew(cfg).RunPipeline(plan, PipelineOptions{Depth: 3, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoC.Packets != rep.NoC.EjectedPackets+rep.NoC.LostPackets {
		t.Errorf("packet conservation violated: %d != %d ejected + %d lost",
			rep.NoC.Packets, rep.NoC.EjectedPackets, rep.NoC.LostPackets)
	}
	if rep.TransfersScheduled == 0 {
		t.Error("no transfer groups scheduled")
	}
	if len(rep.Failed) == 0 {
		t.Error("dead core produced no failed transfers")
	}
	for i := 1; i < len(rep.Failed); i++ {
		a, b := rep.Failed[i-1], rep.Failed[i]
		if a.Batch > b.Batch || (a.Batch == b.Batch && a.Layer > b.Layer) ||
			(a.Batch == b.Batch && a.Layer == b.Layer && (a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst))) {
			t.Errorf("Failed not in (batch, layer, src, dst) order at %d: %+v before %+v", i, a, b)
		}
	}
	// Determinism: the identical run reproduces byte-for-byte.
	rep2, err := MustNew(cfg).RunPipeline(plan, PipelineOptions{Depth: 3, Batches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("repeated faulty pipeline run is not deterministic")
	}
}

func TestRunPipelineRejects(t *testing.T) {
	sys := MustNew(DefaultConfig(16))
	if _, err := sys.RunPipeline(partition.NewPlan(netzoo.MLP(), 8), PipelineOptions{Depth: 1}); err == nil {
		t.Error("core-count mismatch accepted")
	}
	plan := partition.NewPlan(netzoo.MLP(), 16)
	if _, err := sys.RunPipeline(plan, PipelineOptions{Depth: 99}); err == nil {
		t.Error("absurd depth accepted")
	}
	if _, err := sys.RunPipeline(plan, PipelineOptions{Place: partition.Placement{0, 0}}); err == nil {
		t.Error("invalid placement accepted")
	}
	// Placements must cover exactly the plan's cores: a short one would
	// index past its end, a long one would leave mesh nodes unmapped.
	for _, place := range []partition.Placement{{1, 0, 2, 3}, partition.IdentityPlacement(32)} {
		if _, err := sys.RunPlanPlaced(plan, place); err == nil {
			t.Errorf("%d-entry placement accepted by RunPlanPlaced on 16 cores", len(place))
		}
		if _, err := sys.RunPipeline(plan, PipelineOptions{Depth: 2, Place: place}); err == nil {
			t.Errorf("%d-entry placement accepted by a depth-2 RunPipeline on 16 cores", len(place))
		}
	}
}

// Throughput summarizes the steady-state pipelined execution of many
// independent inputs — the datacenter-style operating point the paper
// contrasts its single-pass latency focus against (TPU/DaDianNao-class
// usage). With inputs streamed through the layer pipeline, each layer
// stage processes input b while its successor processes input b−1;
// the slowest stage bounds throughput.
type Throughput struct {
	// BottleneckCycles is the slowest stage (compute + its sync burst).
	BottleneckCycles int64
	BottleneckLayer  string
	// InputsPerMCycle is the steady-state throughput in inferences per
	// million cycles.
	InputsPerMCycle float64
	// PipelineLatency is the fill latency of one input (equals the
	// single-pass TotalCycles).
	PipelineLatency int64
}

// PipelinedThroughput derives the steady-state throughput of the
// report's layer pipeline. It is an optimistic analytic bound: it
// assumes a per-layer pipeline (every layer its own stage, keeping
// its full core count) with perfect compute/transfer overlap, so the
// slowest layer alone bounds the rate. RunPipeline measures the real
// thing — stages share the fixed core budget and cross-stage
// transfers serialize on the one NoC — and its ThroughputPerMCycle
// lands at or below this bound
// (TestPipelinedThroughputEstimateVsSimulation pins the relationship:
// simulated ≤ bound, and within a documented envelope of it).
func (r Report) PipelinedThroughput() Throughput {
	var t Throughput
	t.PipelineLatency = r.TotalCycles()
	for _, l := range r.Layers {
		if c := l.ComputeCycles + l.CommCycles; c > t.BottleneckCycles {
			t.BottleneckCycles = c
			t.BottleneckLayer = l.Name
		}
	}
	if t.BottleneckCycles > 0 {
		t.InputsPerMCycle = 1e6 / float64(t.BottleneckCycles)
	}
	return t
}
