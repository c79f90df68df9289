// Package cmp assembles the full chip multiprocessor of the paper's
// Table II — n Diannao-class accelerator tiles (internal/nna) on a 2D
// mesh NoC (internal/noc) with an LPDDR3 main memory (internal/dram)
// and a DSENT-like interconnect energy model (internal/energy) — and
// simulates one single-pass network inference mapped onto it by a
// partition.Plan.
//
// Execution follows the paper's layer-synchronous model: before a core
// can compute its partition of layer k it must receive the activation
// slices the layer's block mask says it depends on. Each layer
// transition therefore injects a burst of messages into the NoC; the
// burst's drain time is the computation-blocking communication cost,
// and the layer's compute time is the slowest core's nna cycle count.
//
// One scheduler runs every schedule: RunPipeline streams batches
// through a pipeline of stages on one NoC clock, and RunPlan /
// RunPlanPlaced are its depth-1 single-batch case. A single-stage run's
// bursts never overlap, so they are simulated concurrently on host
// workers before the scheduler orders them.
package cmp

import (
	"fmt"
	"sort"
	"sync"

	"learn2scale/internal/dram"
	"learn2scale/internal/energy"
	"learn2scale/internal/fault"
	"learn2scale/internal/nna"
	"learn2scale/internal/noc"
	"learn2scale/internal/obs"
	"learn2scale/internal/partition"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
)

// Config describes the simulated chip.
type Config struct {
	Cores  int
	Mesh   topology.Mesh
	NoC    noc.Config
	Core   nna.Config
	DRAM   dram.Config
	Energy energy.Model

	// StreamWeights charges DRAM stalls for re-streaming layer weights
	// that exceed the core's weight buffer on every inference. The
	// default (false) models the paper's deployment: the network is
	// resident on-chip across the tiles' buffers (DaDianNao-style), so
	// single-pass latency contains no weight refetch.
	StreamWeights bool

	// Obs, when non-nil, receives per-layer cycle/traffic gauges and
	// whole-run counters from every run, and is propagated to the NoC
	// simulators (packet-latency histogram, occupancy high-water). All
	// of it is stable: simulated cycles, not wall time.
	Obs *obs.Registry

	// Timeline, when non-nil, receives one section per (batch, layer)
	// holding the cycle-accurate event trace of that layer's
	// synchronization burst (packet lifecycles, link busy intervals)
	// plus per-core compute spans. Sections are registered serially,
	// batch-major in layer order, before any burst is simulated, and
	// each is filled by the one simulator running its burst, so the
	// timeline is byte-identical at every host worker count. The NoC
	// config's own Timeline stays nil; burst simulators receive their
	// section explicitly.
	Timeline *timeline.Sink

	// Fault, when non-nil and active, injects link/router faults into
	// every layer's synchronization burst (propagated to the NoC
	// simulators, salted with the layer index) and kills the listed
	// compute tiles: a dead core computes nothing, sends nothing, and
	// every activation slice it owed a consumer is zero-filled. The
	// transfers the network fails to deliver come back in
	// Report.Failed so callers can evaluate the degraded accuracy.
	Fault *fault.Config
}

// DefaultConfig returns the paper's platform for the given core count:
// the most-square mesh, Table II NoC and accelerator parameters.
func DefaultConfig(cores int) Config {
	mesh := topology.ForCores(cores)
	nocCfg := noc.DefaultConfig(mesh)
	return Config{
		Cores:  cores,
		Mesh:   mesh,
		NoC:    nocCfg,
		Core:   nna.DefaultConfig(),
		DRAM:   dram.DefaultConfig(),
		Energy: energy.DefaultModel(nocCfg.FlitBytes, cores),
	}
}

// System is an instantiated chip.
type System struct {
	cfg  Config
	core *nna.Core

	// deadNode[n] marks mesh node n's compute tile dead (from
	// cfg.Fault.DeadCores); nil when no cores are dead.
	deadNode []bool

	// simPool recycles NoC simulators across calls: the burst
	// simulators of single-stage runs and the one session simulator of
	// a multi-stage run. Begin fully resets simulator state, so a
	// pooled simulator is indistinguishable from a fresh one, and reuse
	// keeps the mesh's router/buffer arrays off the allocator. Each host
	// worker holds one only for the duration of a burst, and a
	// multi-stage run one for its whole session, so at most one per
	// host worker lives at once per call.
	simPool sync.Pool // holds *noc.Simulator

	// sessionOnly routes single-stage runs through the NoC session like
	// multi-stage ones instead of resolving their bursts up front —
	// tests use it to hold the two paths equal.
	sessionOnly bool
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if cfg.Cores != cfg.Mesh.Nodes() {
		return nil, fmt.Errorf("cmp: %d cores but %dx%d mesh", cfg.Cores, cfg.Mesh.W, cfg.Mesh.H)
	}
	cfg.NoC.Obs = cfg.Obs // per-layer burst simulators inherit the registry
	cfg.Timeline.SetPlatform(cfg.NoC.TimelinePlatform())
	if cfg.Fault != nil {
		cfg.NoC.Fault = cfg.Fault // validated by noc.New against the mesh
	}
	sim, err := noc.New(cfg.NoC)
	if err != nil {
		return nil, err
	}
	var mem *dram.Channel
	if cfg.StreamWeights {
		if mem, err = dram.New(cfg.DRAM); err != nil {
			return nil, err
		}
	} else if _, err = dram.New(cfg.DRAM); err != nil {
		return nil, err // validate even when unused
	}
	core, err := nna.New(cfg.Core, mem)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, core: core}
	if cfg.Fault != nil && len(cfg.Fault.DeadCores) > 0 {
		s.deadNode = make([]bool, cfg.Mesh.Nodes())
		for _, d := range cfg.Fault.DeadCores {
			s.deadNode[d] = true
		}
	}
	// cfg.NoC validated above, so construction cannot fail here; the
	// validating simulator seeds the pool.
	s.simPool.New = func() any { return noc.MustNew(s.cfg.NoC) }
	s.simPool.Put(sim)
	return s, nil
}

// MustNew is New that panics on config error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// LayerResult is the timing of one synaptic layer.
type LayerResult struct {
	Name          string
	ComputeCycles int64 // slowest core
	CommCycles    int64 // synchronization burst drain before the layer
	TrafficBytes  int64
	NoC           noc.Result

	// Failed lists the logical (src core, dst core) activation
	// transfers of this layer's burst that were never delivered — dead
	// source core, disconnected endpoints, or retry budget exhausted —
	// sorted by (Src, Dst). The consumer zero-fills each one.
	Failed []noc.LostTransfer
}

// FailedTransfer is one zero-filled activation transfer of an
// inference: at layer Layer, logical core Src's slice never reached
// logical core Dst.
type FailedTransfer struct {
	Layer    int
	Src, Dst int
}

// Report is the timing and energy of a full single-pass inference.
type Report struct {
	Layers []LayerResult

	ComputeCycles int64
	CommCycles    int64
	TrafficBytes  int64

	NoC             noc.Result
	NoCEnergy       energy.Breakdown
	ComputeEnergyPJ float64

	// Failed aggregates every undelivered transfer of the run in
	// (layer, src, dst) order; empty on fault-free runs. Feed it to
	// core.DegradedAccuracy to evaluate the inference quality the
	// degraded chip still delivers.
	Failed []FailedTransfer
}

// Degraded reports whether any transfer of the run was zero-filled.
func (r Report) Degraded() bool { return len(r.Failed) > 0 }

// TotalCycles returns compute plus blocking communication.
func (r Report) TotalCycles() int64 { return r.ComputeCycles + r.CommCycles }

// TotalCyclesOverlap returns the end-to-end cycles if a fraction f of
// each synchronization burst could be overlapped with computation
// (f = 0 is the paper's layer-synchronous model, f = 1 a perfect
// double-buffered pipeline). Used by the overlap ablation to bound how
// much of the communication penalty smarter scheduling could hide
// without any of the paper's techniques.
func (r Report) TotalCyclesOverlap(f float64) int64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	total := r.ComputeCycles
	for _, l := range r.Layers {
		total += int64(float64(l.CommCycles) * (1 - f))
	}
	return total
}

// CommFraction returns the share of total time spent in blocking
// communication (the paper's ~23%-for-AlexNet metric).
func (r Report) CommFraction() float64 {
	t := r.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(r.CommCycles) / float64(t)
}

// TotalEnergyPJ returns NoC plus compute energy.
func (r Report) TotalEnergyPJ() float64 {
	return r.NoCEnergy.Total() + r.ComputeEnergyPJ
}

// RunPlan simulates one single-pass inference of the partitioned
// network and returns the per-layer and aggregate report. Logical core
// c occupies mesh node c (the paper's identity mapping).
func (s *System) RunPlan(p *partition.Plan) (Report, error) {
	return s.RunPlanPlaced(p, nil)
}

// RunPlanPlaced is RunPlan under an explicit core placement: logical
// core c occupies mesh node place[c]. A nil placement is identity.
// Placement changes message routes (and therefore drain time, latency
// and link energy) but not per-core compute. It is the depth-1
// single-batch RunPipeline: the one scheduler runs every CMP schedule.
func (s *System) RunPlanPlaced(p *partition.Plan, place partition.Placement) (Report, error) {
	rep, err := s.RunPipeline(p, PipelineOptions{Depth: 1, Batches: 1, Place: place})
	return rep.Inference, err
}

// sortLost orders lost transfers by (Src, Dst) so layer reports are
// independent of the order faults were discovered in.
func sortLost(l []noc.LostTransfer) {
	sort.Slice(l, func(i, j int) bool {
		if l[i].Src != l[j].Src {
			return l[i].Src < l[j].Src
		}
		return l[i].Dst < l[j].Dst
	})
}

// Compare holds the paper's headline ratios of a proposal vs a
// baseline run of the same network.
type Compare struct {
	SystemSpeedup      float64 // baseline total cycles / proposal total cycles
	CommSpeedup        float64 // baseline comm cycles / proposal comm cycles
	TrafficRate        float64 // proposal traffic / baseline traffic
	NoCEnergyReduction float64 // 1 − proposal NoC energy / baseline NoC energy
	TotalEnergyRed     float64 // 1 − proposal total energy / baseline total energy
}

// NewCompare computes the ratios of proposal vs baseline.
func NewCompare(baseline, proposal Report) Compare {
	c := Compare{}
	if t := proposal.TotalCycles(); t > 0 {
		c.SystemSpeedup = float64(baseline.TotalCycles()) / float64(t)
	}
	if cc := proposal.CommCycles; cc > 0 {
		c.CommSpeedup = float64(baseline.CommCycles) / float64(cc)
	} else if baseline.CommCycles > 0 {
		c.CommSpeedup = float64(baseline.CommCycles) // fully eliminated
	}
	if bt := baseline.TrafficBytes; bt > 0 {
		c.TrafficRate = float64(proposal.TrafficBytes) / float64(bt)
	}
	if be := baseline.NoCEnergy.Total(); be > 0 {
		c.NoCEnergyReduction = 1 - proposal.NoCEnergy.Total()/be
	}
	if be := baseline.TotalEnergyPJ(); be > 0 {
		c.TotalEnergyRed = 1 - proposal.TotalEnergyPJ()/be
	}
	return c
}
