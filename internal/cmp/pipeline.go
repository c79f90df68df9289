package cmp

import (
	"fmt"

	"learn2scale/internal/energy"
	"learn2scale/internal/noc"
	"learn2scale/internal/obs"
	"learn2scale/internal/parallel"
	"learn2scale/internal/partition"
	"learn2scale/internal/timeline"
)

// PipelineOptions configures a pipelined run.
type PipelineOptions struct {
	// Depth is the number of pipeline stages (≥ 1). Depth 1 is the
	// paper's layer-synchronous barrier model: one batch at a time, and
	// with one batch exactly what RunPlan/RunPlanPlaced report.
	Depth int
	// Batches is the number of inferences streamed through the pipeline
	// (≥ 1; 0 means 1).
	Batches int
	// Place maps global stage-major core c to mesh node Place[c]
	// (nil = identity), exactly like RunPlanPlaced's placement.
	Place partition.Placement
}

// StageStat summarizes one pipeline stage's utilization.
type StageStat struct {
	First, Last     int // synaptic layer span
	CoreBase, Cores int
	// BusyCycles is the total compute time the stage's cores spent
	// across all batches; Window is last activity end − first activity
	// start. Occupancy = BusyCycles / Window: 1 − Occupancy is the
	// stage's bubble fraction.
	BusyCycles int64
	Window     int64
	Occupancy  float64
}

// PipelineReport is the outcome of a pipelined run: the measured
// steady-state throughput of the simulated schedule — transfers and
// compute of different in-flight inferences genuinely contending on one
// clock — rather than an analytic bottleneck estimate.
type PipelineReport struct {
	Depth   int
	Batches int

	// Inference is batch 0's per-layer report — what RunPlanPlaced
	// returns for a depth-1 single-batch run, including NoC results,
	// failed transfers and energy. At
	// deeper pipelines its Failed transfers use stage-major global core
	// ids, which only coincide with the base plan's logical cores at
	// depth 1 — so feed it to core.DegradedAccuracy only at depth 1.
	Inference Report

	Stages []StageStat

	// Completions[b] is the absolute cycle batch b left the last stage.
	Completions []int64

	// FillCycles is batch 0's completion (pipeline fill + first drain),
	// SteadyCycles spans completions 0 → B−2, DrainCycles the final
	// inter-completion gap. They telescope exactly:
	// Fill + Steady + Drain == TotalCycles == Completions[B−1].
	FillCycles   int64
	SteadyCycles int64
	DrainCycles  int64
	TotalCycles  int64

	// ThroughputPerMCycle is the measured steady-state rate: completed
	// inferences per million cycles over the inter-completion span
	// (falls back to 1e6/Total for a single batch).
	ThroughputPerMCycle float64

	// Aggregates over every batch and transfer of the run.
	NoC             noc.Result
	NoCEnergy       energy.Breakdown
	ComputeEnergyPJ float64

	// Failed lists every undelivered transfer in (batch, layer, src,
	// dst) order; src/dst are stage-major global core ids.
	Failed []PipelineFailedTransfer

	TransfersScheduled int64 // NoC burst groups injected
	TransfersFailed    int64 // (batch, layer) transfers with at least one lost slice
}

// PipelineFailedTransfer is one zero-filled activation transfer of a
// pipelined run.
type PipelineFailedTransfer struct {
	Batch, Layer, Src, Dst int
}

// taskState tracks one (batch, stage) unit of work through the
// scheduler.
type taskState struct {
	li         int   // next stage-layer to compute
	inputReady int64 // cycle the pending layer's input transfer landed; −1 = in flight
	done       bool
	end        int64 // task completion cycle (valid once done)
}

// groupRef identifies the consumer of an in-flight NoC burst group.
type groupRef struct {
	b, s, li int
}

// pipelineRun is the transient state of one RunPipeline call.
type pipelineRun struct {
	sys     *System
	pp      *partition.PipelinePlan
	place   partition.Placement
	inv     []int // node → global core (faulty runs only)
	faultOn bool

	// ses carries multi-stage runs' overlapping groups. Single-stage
	// runs leave it nil: their groups never overlap, so resolveGroups
	// simulates them all up front and injected[b·L+k] marks the
	// (batch b, layer k) groups that entered the network.
	ses      *noc.Session
	injected []bool
	tasks    [][]taskState // [batch][stage]
	owner    []groupRef    // group id → consumer

	secs    [][]*timeline.Section // [batch][layer k]
	layers  [][]LayerResult       // [batch][layer k]
	energy  []float64             // per-batch compute energy
	pending int                   // unresolved groups in flight
	left    int                   // unfinished tasks

	scheduled int64
}

// RunPipeline simulates Batches inferences streaming through a
// Depth-stage pipeline of the partitioned network on one NoC clock and
// returns the measured schedule. Stages own disjoint core blocks
// (partition.NewPipelinePlan); while stage s computes batch b, its
// output burst for batch b−1 drains toward stage s+1 and stage s+1
// still computes batch b−2 — all transfer groups genuinely contend in
// the shared network (noc.Session).
//
// The scheduler is event-driven and fully deterministic: tasks block
// only on NoC group resolutions and every derived time is simulated
// cycles. A single-stage run (depth 1: the paper's layer-synchronous
// model, and RunPlan) injects each group only after the previous one
// resolved, so no two groups overlap and each is bit-identical to an
// independent burst with the same salt (the noc.Session contract);
// those groups are simulated up front, concurrently on the host
// workers of internal/parallel, and the scheduler delivers each at its
// inject cycle plus its drain. Reports, obs metrics and timelines are
// byte-identical at any host worker count.
func (s *System) RunPipeline(p *partition.Plan, opt PipelineOptions) (PipelineReport, error) {
	if p.Cores != s.cfg.Cores {
		return PipelineReport{}, fmt.Errorf("cmp: plan for %d cores on a %d-core system", p.Cores, s.cfg.Cores)
	}
	if opt.Depth < 1 {
		opt.Depth = 1
	}
	if opt.Place != nil && (len(opt.Place) != p.Cores || !opt.Place.Valid()) {
		return PipelineReport{}, fmt.Errorf("cmp: invalid placement %v for %d cores", opt.Place, p.Cores)
	}
	pp, err := partition.NewPipelinePlan(p, opt.Depth)
	if err != nil {
		return PipelineReport{}, err
	}
	return s.runPipeline(pp, opt.Batches, opt.Place)
}

// runPipeline is RunPipeline on a given stage plan, whose base plan
// and placement the caller has checked against the system.
func (s *System) runPipeline(pp *partition.PipelinePlan, batches int, place partition.Placement) (PipelineReport, error) {
	p := pp.Base
	if batches < 1 {
		batches = 1
	}
	// A depth-1 single-batch run is a RunPlan run; it keeps that span
	// name so RunPlan's stable flight records do not change (span
	// invocation counts are stable metrics).
	spanName := "sim/runpipeline"
	if len(pp.Stages) == 1 && batches == 1 {
		spanName = "sim/runplan"
	}
	rtm := s.cfg.Obs.Span(spanName).Start()
	defer rtm.Stop()

	r := &pipelineRun{sys: s, pp: pp, place: place, faultOn: s.cfg.Fault.Active()}
	if r.faultOn {
		r.inv = make([]int, p.Cores)
		for c := 0; c < p.Cores; c++ {
			r.inv[nodeOf(place, c)] = c
		}
	}

	B, L, depth := batches, len(p.Layers), len(pp.Stages)

	// Sections register serially up front, batch-major in layer order.
	// With one batch the labels are the plain per-layer ones (the
	// stage/batch tags are 0 and vanish from records).
	if s.cfg.Timeline != nil {
		r.secs = make([][]*timeline.Section, B)
		for b := 0; b < B; b++ {
			r.secs[b] = make([]*timeline.Section, L)
			for k := 0; k < L; k++ {
				label := fmt.Sprintf("layer%02d.%s", k, p.Layers[k].Shape.Spec.Name)
				if B > 1 {
					label = fmt.Sprintf("b%02d.%s", b, label)
				}
				sec := s.cfg.Timeline.Section(label)
				sec.SetStage(pp.StageOf(k), b)
				r.secs[b][k] = sec
			}
		}
	}

	r.tasks = make([][]taskState, B)
	r.layers = make([][]LayerResult, B)
	r.energy = make([]float64, B)
	for b := 0; b < B; b++ {
		r.tasks[b] = make([]taskState, depth)
		for st := range r.tasks[b] {
			r.tasks[b][st].inputReady = -1
		}
		// Stage 0's input is the broadcast network input, on hand at 0.
		r.tasks[b][0].inputReady = 0
		r.layers[b] = make([]LayerResult, L)
		for k := 0; k < L; k++ {
			r.layers[b][k].Name = p.Layers[k].Shape.Spec.Name
		}
	}
	r.left = B * depth

	if depth == 1 && !s.sessionOnly {
		if err := r.resolveGroups(); err != nil {
			return PipelineReport{}, err
		}
	} else {
		// One pooled simulator owns the whole run's session; Begin
		// resets it, so it is indistinguishable from a fresh one.
		sim := s.simPool.Get().(*noc.Simulator)
		defer s.simPool.Put(sim)
		r.ses = sim.Begin()
	}

	// Seed the pipeline and drain resolution events. Every scheduling
	// decision happens synchronously inside tryAdvance; the loop below
	// only pumps NoC completions back in.
	if err := r.tryAdvance(0, 0); err != nil {
		return PipelineReport{}, err
	}
	for r.left > 0 {
		if r.pending == 0 {
			return PipelineReport{}, fmt.Errorf("cmp: pipeline stalled with %d tasks left and no transfer in flight", r.left)
		}
		g, end, err := r.ses.Next()
		if err != nil {
			return PipelineReport{}, fmt.Errorf("cmp: pipeline: %w", err)
		}
		r.pending--
		ref := r.owner[g]
		r.settle(&r.layers[ref.b][r.pp.Stages[ref.s].First+ref.li], r.ses.Result(g), r.ses.Lost(g))
		tk := &r.tasks[ref.b][ref.s]
		if ref.li != tk.li {
			return PipelineReport{}, fmt.Errorf("cmp: pipeline: group for layer %d resolved while task at layer %d", ref.li, tk.li)
		}
		tk.inputReady = end
		if err := r.tryAdvance(ref.b, ref.s); err != nil {
			return PipelineReport{}, err
		}
	}
	return r.report(B, depth)
}

// resolveGroups simulates every transfer group of a single-stage run
// before scheduling starts: the groups feeding layers 1..L−1 of every
// batch (layer 0's input is the broadcast network input). Each group
// runs alone in a one-group session on a pooled simulator, under the
// salt and timeline section the shared session would give it, and
// writes only its own layer result, so the fan-out over host workers
// is deterministic.
func (r *pipelineRun) resolveGroups() error {
	s := r.sys
	B, L := len(r.layers), len(r.pp.Base.Layers)
	r.injected = make([]bool, B*L)
	errs := make([]error, B*L)
	parallel.For(B*L, func(i int) {
		b, k := i/L, i%L
		if k == 0 {
			return
		}
		msgs := r.transferMsgs(b, 0, k)
		if len(msgs) == 0 {
			return
		}
		sim := s.simPool.Get().(*noc.Simulator)
		defer s.simPool.Put(sim)
		ses := sim.Begin()
		g, err := ses.Inject(msgs, 0, int64(i), r.section(b, k))
		if err == nil {
			_, _, err = ses.Next()
		}
		if err != nil {
			errs[i] = fmt.Errorf("cmp: layer %s: %w", r.layers[b][k].Name, err)
			return
		}
		r.injected[i] = true
		r.settle(&r.layers[b][k], ses.Result(g), ses.Lost(g))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// settle records a resolved group's NoC result and lost transfers
// (mapped back to global cores) on its consumer layer.
func (r *pipelineRun) settle(lr *LayerResult, res noc.Result, lost []noc.LostTransfer) {
	lr.NoC = res
	lr.CommCycles = res.Cycles
	for _, lt := range lost {
		lr.Failed = append(lr.Failed, noc.LostTransfer{Src: r.inv[lt.Src], Dst: r.inv[lt.Dst]})
	}
	sortLost(lr.Failed)
}

// section returns the timeline section of (batch b, layer k), nil when
// untraced.
func (r *pipelineRun) section(b, k int) *timeline.Section {
	if r.secs == nil {
		return nil
	}
	return r.secs[b][k]
}

// nodeOf maps a global core id to its mesh node under the placement.
func nodeOf(place partition.Placement, c int) int {
	if place == nil {
		return c
	}
	return place[c]
}

// tryAdvance runs task (b, st) as far as its inputs allow: computing
// layers whose transfers have landed, injecting the next transfer at
// each compute completion, and cascading into the tasks it unblocks.
// All times are simulated cycles derived from resolution events, so the
// cascade never schedules behind the session clock.
func (r *pipelineRun) tryAdvance(b, st int) error {
	tk := &r.tasks[b][st]
	stage := &r.pp.Stages[st]
	for !tk.done {
		if tk.inputReady < 0 {
			return nil // pending layer's transfer still in flight
		}
		start := tk.inputReady
		if tk.li == 0 {
			// The stage's cores are busy with the previous batch until
			// its task retires — the pipeline's structural hazard.
			if b > 0 {
				prev := &r.tasks[b-1][st]
				if !prev.done {
					return nil
				}
				if prev.end > start {
					start = prev.end
				}
			}
		}
		k := stage.First + tk.li
		sl := &stage.Layers[tk.li]
		lr := &r.layers[b][k]
		sec := r.section(b, k)

		// The section starts where its burst was injected (start −
		// drain), so burst events (relative to injection) and compute
		// spans share one origin; at depth 1 sections tile back to back,
		// each burst drain followed by its layer's compute.
		sec.SetStart(start - lr.CommCycles)
		// Compute: the stage's slowest live core bounds the layer.
		var cy int64
		var pj float64
		for lc := 0; lc < stage.Cores; lc++ {
			n := nodeOf(r.place, stage.CoreBase+lc)
			if r.sys.deadNode != nil && r.sys.deadNode[n] {
				continue
			}
			w := sl.CoreWork(lc, r.pp.Base.BytesPerValue)
			c := r.sys.core.ComputeCycles(w)
			cy = max(cy, c)
			pj += r.sys.core.ComputeEnergyPJ(w)
			if c > 0 {
				sec.Compute(lr.CommCycles, lr.CommCycles+c, n)
			}
		}
		lr.ComputeCycles = cy
		r.energy[b] += pj
		end := start + cy
		tk.li++
		tk.inputReady = -1

		if tk.li < len(stage.Layers) {
			// Intra-stage transfer into the next layer, launched the
			// moment its producers finish computing.
			if err := r.launchTransfer(b, st, tk.li, end); err != nil {
				return err
			}
			continue
		}
		// Task retires; hand off to the next stage and free this one.
		tk.done = true
		tk.end = end
		r.left--
		if st+1 < len(r.pp.Stages) {
			if err := r.launchTransfer(b, st+1, 0, end); err != nil {
				return err
			}
		}
		if b+1 < len(r.tasks) {
			if err := r.tryAdvance(b+1, st); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// launchTransfer injects the burst feeding stage-layer (st, li) of
// batch b at cycle at — the producer's compute completion — and records
// it against the consumer. Zero-traffic transfers deliver immediately;
// groups resolved up front deliver once their drain has elapsed.
func (r *pipelineRun) launchTransfer(b, st, li int, at int64) error {
	k := r.pp.Stages[st].First + li
	lr := &r.layers[b][k]
	deliver := func(at int64) error {
		r.tasks[b][st].inputReady = at
		if li == 0 {
			return r.tryAdvance(b, st) // cross-stage handoff may unblock the consumer
		}
		return nil // intra-stage: the caller's loop continues
	}
	// Salt decorrelates every (batch, layer) burst; batch 0's layer k
	// is salted k, so a single inference's faults do not depend on
	// how many batches follow it.
	salt := b*len(r.pp.Base.Layers) + k
	if r.ses == nil {
		if r.injected[salt] {
			r.scheduled++
		}
		return deliver(at + lr.CommCycles)
	}
	msgs := r.transferMsgs(b, st, li)
	if len(msgs) == 0 {
		return deliver(at)
	}
	gid, err := r.ses.Inject(msgs, at, int64(salt), r.section(b, k))
	if err != nil {
		return fmt.Errorf("cmp: pipeline layer %s: %w", lr.Name, err)
	}
	for gid >= len(r.owner) {
		r.owner = append(r.owner, groupRef{})
	}
	r.owner[gid] = groupRef{b: b, s: st, li: li}
	r.pending++
	r.scheduled++
	return nil
}

// transferMsgs returns the placed messages of the burst feeding
// stage-layer (st, li) of batch b and sets the consumer layer's traffic.
// A dead core produces nothing: its outgoing transfers are never
// generated (the consumer zero-fills them, recorded as failed) and
// transfers addressed to it are pointless, so neither enters the
// network.
func (r *pipelineRun) transferMsgs(b, st, li int) []noc.Message {
	dead := r.sys.deadNode
	k := r.pp.Stages[st].First + li
	lr := &r.layers[b][k]
	traffic := r.pp.LayerTraffic(st, li)
	if r.place != nil {
		traffic = r.place.Apply(traffic)
	}
	lr.TrafficBytes = traffic.Total()
	if lr.TrafficBytes == 0 {
		return nil
	}
	msgs := traffic.Messages()
	if dead == nil {
		return msgs
	}
	sec := r.section(b, k)
	kept := msgs[:0]
	var bytes int64
	for _, m := range msgs {
		if dead[m.Src] || dead[m.Dst] {
			if dead[m.Src] && !dead[m.Dst] {
				lr.Failed = append(lr.Failed, noc.LostTransfer{Src: r.inv[m.Src], Dst: r.inv[m.Dst]})
				sec.Lost(0, -1, 0, m.Src, m.Src, m.Dst)
			}
			continue
		}
		kept = append(kept, m)
		bytes += int64(m.Bytes)
	}
	lr.TrafficBytes = bytes
	sortLost(lr.Failed)
	return kept
}

// report assembles the final PipelineReport once every task retired.
func (r *pipelineRun) report(B, depth int) (PipelineReport, error) {
	s := r.sys
	rep := PipelineReport{Depth: depth, Batches: B, TransfersScheduled: r.scheduled}

	// Batch 0's per-layer report — the single-inference view.
	for k := range r.layers[0] {
		lr := r.layers[0][k]
		for _, ft := range lr.Failed {
			rep.Inference.Failed = append(rep.Inference.Failed, FailedTransfer{Layer: k, Src: ft.Src, Dst: ft.Dst})
		}
		rep.Inference.Layers = append(rep.Inference.Layers, lr)
		rep.Inference.ComputeCycles += lr.ComputeCycles
		rep.Inference.CommCycles += lr.CommCycles
		rep.Inference.TrafficBytes += lr.TrafficBytes
		rep.Inference.NoC.Add(lr.NoC)
	}
	rep.Inference.ComputeEnergyPJ = r.energy[0]
	rep.Inference.NoCEnergy = s.cfg.Energy.Energy(rep.Inference.NoC)

	// Whole-run aggregates.
	for b := 0; b < B; b++ {
		for k := range r.layers[b] {
			lr := &r.layers[b][k]
			rep.NoC.Add(lr.NoC)
			if len(lr.Failed) > 0 {
				rep.TransfersFailed++
			}
			for _, ft := range lr.Failed {
				rep.Failed = append(rep.Failed, PipelineFailedTransfer{Batch: b, Layer: k, Src: ft.Src, Dst: ft.Dst})
			}
		}
		rep.ComputeEnergyPJ += r.energy[b]
	}
	rep.NoCEnergy = s.cfg.Energy.Energy(rep.NoC)

	rep.Completions = make([]int64, B)
	for b := 0; b < B; b++ {
		rep.Completions[b] = r.tasks[b][depth-1].end
	}
	rep.TotalCycles = rep.Completions[B-1]
	rep.FillCycles = rep.Completions[0]
	if B > 1 {
		rep.SteadyCycles = rep.Completions[B-2] - rep.Completions[0]
		rep.DrainCycles = rep.Completions[B-1] - rep.Completions[B-2]
	}
	if B > 1 {
		if span := rep.Completions[B-1] - rep.Completions[0]; span > 0 {
			rep.ThroughputPerMCycle = float64(B-1) * 1e6 / float64(span)
		}
	} else if rep.TotalCycles > 0 {
		rep.ThroughputPerMCycle = 1e6 / float64(rep.TotalCycles)
	}

	// Stage occupancy: compute-busy share of each stage's active window.
	rep.Stages = make([]StageStat, depth)
	for st := 0; st < depth; st++ {
		stat := &rep.Stages[st]
		stage := &r.pp.Stages[st]
		stat.First, stat.Last = stage.First, stage.Last
		stat.CoreBase, stat.Cores = stage.CoreBase, stage.Cores
		firstStart := int64(-1)
		for b := 0; b < B; b++ {
			var busy int64
			for k := stage.First; k <= stage.Last; k++ {
				busy += r.layers[b][k].ComputeCycles
			}
			stat.BusyCycles += busy
			taskStart := r.tasks[b][st].end - busy // compute occupies [end−busy, end] minus waits
			if firstStart < 0 || taskStart < firstStart {
				firstStart = taskStart
			}
		}
		if firstStart < 0 {
			firstStart = 0
		}
		stat.Window = r.tasks[B-1][st].end - firstStart
		if stat.Window > 0 {
			stat.Occupancy = float64(stat.BusyCycles) / float64(stat.Window)
		}
	}

	// Obs: batch 0's per-layer gauges and whole-run counters;
	// pipeline.* aggregates only appear for genuinely pipelined runs so
	// depth-1 single-batch (RunPlan) records carry none of them.
	if reg := s.cfg.Obs; reg != nil {
		for k := range rep.Inference.Layers {
			lr := &rep.Inference.Layers[k]
			pfx := fmt.Sprintf("sim.layer.%02d.%s.", k, lr.Name)
			reg.Gauge(pfx+"compute_cycles", obs.Stable).Set(float64(lr.ComputeCycles))
			reg.Gauge(pfx+"comm_cycles", obs.Stable).Set(float64(lr.CommCycles))
			reg.Gauge(pfx+"traffic_bytes", obs.Stable).Set(float64(lr.TrafficBytes))
			if r.faultOn {
				reg.Gauge(pfx+"lost_transfers", obs.Stable).Set(float64(len(lr.Failed)))
			}
		}
		reg.Counter("sim.layers", obs.Stable).Add(int64(len(rep.Inference.Layers)))
		reg.Counter("sim.compute_cycles", obs.Stable).Add(rep.Inference.ComputeCycles)
		reg.Counter("sim.comm_cycles", obs.Stable).Add(rep.Inference.CommCycles)
		reg.Counter("sim.traffic_bytes", obs.Stable).Add(rep.Inference.TrafficBytes)
		if r.faultOn {
			reg.Counter("sim.lost_transfers", obs.Stable).Add(int64(len(rep.Inference.Failed)))
			reg.Counter("sim.retransmits", obs.Stable).Add(rep.Inference.NoC.Retransmits)
		}
		if rep.Inference.NoC.Cycles > 0 {
			reg.Gauge("sim.noc.avg_link_load", obs.Stable).
				Set(float64(rep.Inference.NoC.LinkTraversals) / float64(rep.Inference.NoC.Cycles))
		}
		if depth > 1 || B > 1 {
			reg.Gauge("pipeline.depth", obs.Stable).Set(float64(depth))
			reg.Gauge("pipeline.batches", obs.Stable).Set(float64(B))
			reg.Gauge("pipeline.fill_cycles", obs.Stable).Set(float64(rep.FillCycles))
			reg.Gauge("pipeline.steady_cycles", obs.Stable).Set(float64(rep.SteadyCycles))
			reg.Gauge("pipeline.drain_cycles", obs.Stable).Set(float64(rep.DrainCycles))
			reg.Gauge("pipeline.total_cycles", obs.Stable).Set(float64(rep.TotalCycles))
			reg.Gauge("pipeline.throughput_per_mcycle", obs.Stable).Set(rep.ThroughputPerMCycle)
			for st := range rep.Stages {
				reg.Gauge(fmt.Sprintf("pipeline.stage.%02d.occupancy", st), obs.Stable).
					Set(rep.Stages[st].Occupancy)
			}
			reg.Boundary("pipeline", float64(rep.TotalCycles))
		} else {
			// A depth-1 single-batch run is one RunPlan inference: one
			// deterministic telemetry window spanning its simulated
			// cycles.
			span := float64(rep.Inference.TotalCycles())
			if span <= 0 {
				span = 1
			}
			reg.Boundary("runplan", span)
		}
	}
	return rep, nil
}
