// Package learn2scale is a Go reproduction of "Learn-to-Scale:
// Parallelizing Deep Learning Inference on Chip Multiprocessor
// Architecture" (Zou, Wang, Li, Li — DATE 2019).
//
// The library parallelizes one single-pass neural-network inference
// across the cores of an embedded chip multiprocessor built from
// Diannao-class accelerator tiles on a 2D-mesh NoC, and implements the
// paper's three strategies:
//
//   - Baseline — traditional kernel-split parallelization with
//     all-to-all activation broadcast at every layer transition;
//   - StructureLevel — AlexNet-style channel grouping aligned with the
//     cores so split layers need no synchronization;
//   - SS / SSMask — communication-aware sparsified parallelization:
//     group-Lasso training over the n×n core-block structure of every
//     layer, distance-oblivious (SS) or weighted by mesh hop distance
//     (SSMask) so long-range traffic is pruned first.
//
// A minimal session:
//
//	ds := learn2scale.MNISTLike(600, 200, 1)
//	opt := learn2scale.DefaultTrainOptions(16)
//	model, err := learn2scale.Train(learn2scale.SSMask, learn2scale.MLP(), ds, opt)
//	// handle err
//	report, err := model.Simulate() // cycle + energy report on the 16-core CMP
//
// Everything underneath — the float32/int16 tensor/NN stack,
// the flit-level NoC simulator, the accelerator-core and DRAM timing
// models, the partitioner and the group-Lasso machinery — lives in
// internal/ packages and is re-exported here only to the extent a
// downstream user needs. The experiment harness that regenerates every
// table and figure of the paper is exposed via the Table*/Motivation
// functions and the cmd/l2s-bench binary.
package learn2scale

import (
	"context"
	"io"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fault"
	"learn2scale/internal/fixed"
	"learn2scale/internal/netzoo"
	"learn2scale/internal/nn"
	"learn2scale/internal/parallel"
	"learn2scale/internal/partition"
	"learn2scale/internal/serve"
	"learn2scale/internal/tensor"
	"learn2scale/internal/timeline"
	"learn2scale/internal/topology"
	"learn2scale/internal/trace"
)

// Scheme selects a parallelization strategy.
type Scheme = core.Scheme

// The paper's strategies.
const (
	Baseline       = core.Baseline
	StructureLevel = core.StructureLevel
	SS             = core.SS
	SSMask         = core.SSMask
)

// NetSpec describes a network architecture.
type NetSpec = netzoo.NetSpec

// MLP returns the paper's 512/304/10 multilayer perceptron (MNIST).
func MLP() NetSpec { return netzoo.MLP() }

// LeNet returns the Caffe LeNet architecture (MNIST).
func LeNet() NetSpec { return netzoo.LeNet() }

// ConvNet returns the Caffe cifar10-quick architecture (CIFAR-10).
func ConvNet() NetSpec { return netzoo.ConvNet() }

// CaffeNet returns the Caffe AlexNet variant at full ImageNet scale.
func CaffeNet() NetSpec { return netzoo.CaffeNet() }

// AlexNet is CaffeNet under the name Table I uses.
func AlexNet() NetSpec { return netzoo.AlexNet() }

// VGG19 returns VGG-19 at full ImageNet scale.
func VGG19() NetSpec { return netzoo.VGG19() }

// ResNet18 is an identity-skip residual architecture for the analytic
// path (traffic/compute modelling); it cannot be trained by Build.
func ResNet18() NetSpec { return netzoo.ResNet18() }

// ConvNetI10 returns the Table III ConvNet variant: three conv stages
// with the given kernel counts on 3×size×size input, conv2/conv3 split
// into groups (1 = dense).
func ConvNetI10(kernels [3]int, groups, size int) NetSpec {
	return netzoo.ConvNetI10(kernels, groups, size)
}

// Dataset is a labelled train/test image set.
type Dataset = data.Dataset

// MNISTLike generates the synthetic stand-in for MNIST (see DESIGN.md
// for the substitution rationale).
func MNISTLike(train, test int, seed int64) *Dataset { return data.MNISTLike(train, test, seed) }

// CIFARLike generates the synthetic stand-in for CIFAR-10.
func CIFARLike(train, test int, seed int64) *Dataset { return data.CIFARLike(train, test, seed) }

// ImageNet10Like generates the synthetic stand-in for the paper's
// ten-class ImageNet subset at the given image size.
func ImageNet10Like(size, train, test int, seed int64) *Dataset {
	return data.ImageNet10Like(size, train, test, seed)
}

// TrainOptions configures Train. Its Workers field caps the host
// worker threads used for training math; zero means HostWorkers().
// Host workers parallelize the Go-side computation only — they are
// unrelated to the Cores field, which sets the number of simulated
// CMP accelerator cores — and every result is bit-identical at any
// worker count.
type TrainOptions = core.TrainOptions

// EnvWorkers is the environment variable ("L2S_WORKERS") that
// overrides the default host worker count process-wide.
const EnvWorkers = parallel.EnvWorkers

// HostWorkers reports the host worker count used when nothing
// overrides it: $L2S_WORKERS if set to a positive integer, else
// GOMAXPROCS.
func HostWorkers() int { return parallel.Workers() }

// DefaultTrainOptions returns a sensible configuration for the given
// core count.
func DefaultTrainOptions(cores int) TrainOptions { return core.DefaultTrainOptions(cores) }

// TrainedModel is a trained network with its CMP mapping.
type TrainedModel = core.TrainedModel

// Train trains spec on ds under the given scheme; see core.Train.
func Train(scheme Scheme, spec NetSpec, ds *Dataset, opt TrainOptions) (*TrainedModel, error) {
	return core.Train(scheme, spec, ds, opt)
}

// Precision selects the inference datapath: Float32 (the training
// datapath) or Int16 (the scaled quantized path: int16 operands, int32
// accumulators, packed dual-MAC lanes in the simulated cores).
type Precision = fixed.Precision

// The inference datapaths.
const (
	Float32 = fixed.Float32
	Int16   = fixed.Int16
)

// ParsePrecision parses a -precision flag value ("float32" or "int16").
func ParsePrecision(s string) (Precision, error) { return fixed.ParsePrecision(s) }

// CalibConfig selects the activation-range calibrator used by
// TrainedModel.Quantize: max-abs (no saturation on the calibration
// set) or a percentile (outliers saturate, the bulk gets finer
// resolution).
type CalibConfig = nn.CalibConfig

// Calibration methods for CalibConfig.Method.
const (
	CalibMaxAbs     = fixed.CalibMaxAbs
	CalibPercentile = fixed.CalibPercentile
)

// System is a simulated chip multiprocessor (cores + mesh NoC + DRAM).
type System = cmp.System

// SystemConfig configures a System.
type SystemConfig = cmp.Config

// DefaultSystemConfig returns the paper's Table II platform for the
// given core count.
func DefaultSystemConfig(cores int) SystemConfig { return cmp.DefaultConfig(cores) }

// NewSystem builds a system.
func NewSystem(cfg SystemConfig) (*System, error) { return cmp.New(cfg) }

// Report is the timing/energy outcome of one simulated inference.
type Report = cmp.Report

// Compare holds proposal-vs-baseline ratios (speedup, traffic rate,
// energy reduction).
type Compare = cmp.Compare

// NewCompare computes the ratios of proposal vs baseline.
func NewCompare(baseline, proposal Report) Compare { return cmp.NewCompare(baseline, proposal) }

// PipelineOptions configures System.RunPipeline: the stage count
// (Depth; the stages are MAC-balanced by NewPipelinePlan), the number
// of in-flight inferences (Batches), and an optional core placement.
type PipelineOptions = cmp.PipelineOptions

// PipelineReport is the outcome of a pipelined run: the depth-1
// equivalent single-inference Report plus measured steady-state
// throughput, fill/drain latency and per-stage occupancy.
type PipelineReport = cmp.PipelineReport

// PipelineStageStat is one stage's occupancy summary inside a
// PipelineReport.
type PipelineStageStat = cmp.StageStat

// PipelinePlan groups a plan's layers into pipeline stages pinned to
// disjoint core blocks.
type PipelinePlan = partition.PipelinePlan

// NewPipelinePlan balances p's layers into depth stages by the
// work-minimizing dynamic program and splits the cores
// proportionally to stage work.
func NewPipelinePlan(p *Plan, depth int) (*PipelinePlan, error) {
	return partition.NewPipelinePlan(p, depth)
}

// Plan maps a network onto cores; expose it for users who want the
// traffic matrices directly.
type Plan = partition.Plan

// NewPlan builds the traditional (dense) mapping of spec onto cores.
func NewPlan(spec NetSpec, cores int) *Plan { return partition.NewPlan(spec, cores) }

// Placement maps logical cores to mesh nodes; OptimizePlacement
// searches for one minimizing bytes×hops (an extension of the paper's
// distance-aware idea from training time to mapping time).
type Placement = partition.Placement

// OptimizePlacement minimizes the plan's aggregate bytes×hops over
// core permutations by seeded local search.
func OptimizePlacement(p *Plan, iters int, seed int64) Placement {
	mesh := topology.ForCores(p.Cores)
	return partition.OptimizePlacement(p.AggregateTraffic(), mesh, iters, seed)
}

// FaultConfig describes a deterministic fault-injection scenario —
// dead links/routers/cores, transient flit drops, slow links, and the
// retry policy. Set it on SystemConfig.Fault before NewSystem; the
// undelivered transfers come back in Report.Failed and
// TrainedModel.DegradedAccuracy evaluates what they cost.
type FaultConfig = fault.Config

// FaultScenario returns the uniform transient-fault scenario: every
// link drops flits with probability rate, default retry policy.
// Decisions are threshold-coupled across rates, so an ascending rate
// grid degrades a nested fault pattern instead of resampling.
func FaultScenario(rate float64, seed int64) *FaultConfig { return fault.Scenario(rate, seed) }

// StructuralFaultScenario returns a mixed scenario on the mesh used
// for the given core count: each link is dead with probability rate/4
// and the survivors drop flits with probability rate.
func StructuralFaultScenario(cores int, rate float64, seed int64) *FaultConfig {
	return fault.StructuralScenario(topology.ForCores(cores), rate, seed)
}

// TimelineSink is a cycle-accurate event tracer: set one (NewTimeline)
// on SystemConfig.Timeline — or pass it to
// TrainedModel.SimulateTimeline — and the simulation records every
// packet's lifecycle, per-link busy intervals and per-core compute
// spans, in simulated cycles, byte-identical at every host worker
// count. Render with WriteRecord (compact record for cmd/l2s-trace) or
// WritePerfetto (Chrome trace-event JSON for ui.perfetto.dev). A nil
// sink is the disabled tracer: zero cost, no effect on results.
type TimelineSink = timeline.Sink

// NewTimeline creates an empty timeline sink.
func NewTimeline() *TimelineSink { return timeline.NewSink() }

// AnalyzeTimeline digests a parsed timeline record into critical
// chains, the latency decomposition and per-link heat (what
// cmd/l2s-trace prints).
func AnalyzeTimeline(tl *timeline.Timeline) (*timeline.Analysis, error) {
	return timeline.Analyze(tl)
}

// ReadTimeline parses a timeline record written by
// TimelineSink.WriteRecord.
func ReadTimeline(r io.Reader) (*timeline.Timeline, error) { return timeline.ReadRecord(r) }

// TimelineAnalysis is the digest AnalyzeTimeline produces.
type TimelineAnalysis = timeline.Analysis

// CompareTimelines renders analyses of the same workload under
// different schemes side by side: latency decomposition, mean hop
// count and the hop-distance histogram (the paper's locality argument,
// cycle by cycle).
func CompareTimelines(as []*TimelineAnalysis, labels []string) string {
	return timeline.FormatCompare(as, labels)
}

// Trace is a portable JSON record of a plan's synchronization traffic.
type Trace = trace.Trace

// TraceOf extracts the traffic trace of a plan (with its block masks
// applied).
func TraceOf(p *Plan) Trace { return trace.FromPlan(p) }

// ReadTrace parses a trace written by Trace.Write.
func ReadTrace(r io.Reader) (Trace, error) { return trace.Read(r) }

// Serving layer (internal/serve): an in-process dispatcher that holds
// a pool of trained models and reusable simulators, batches concurrent
// inference requests into pipelined simulation passes, and serves
// HTTP/JSON through Server.Handler. See cmd/l2s-serve.

// Server is the batched inference serving layer.
type Server = serve.Server

// ServeConfig configures a Server: queue bound, batching window,
// pipeline depth, simulator fleet size, observability wiring.
type ServeConfig = serve.Config

// ServeModel is one servable entry: a trained scheme at a precision
// with its simulator fleet.
type ServeModel = serve.Model

// ServeModelKey routes a request: (scheme, precision).
type ServeModelKey = serve.ModelKey

// ServeRequest and ServeResponse are the /v1/infer wire forms.
type (
	ServeRequest  = serve.Request
	ServeResponse = serve.Response
)

// ServeScriptStep is one line of a deterministic request script; see
// Server.RunScript.
type ServeScriptStep = serve.ScriptStep

// NewServer builds a serving layer over models and starts its
// dispatcher; Close drains it.
func NewServer(cfg ServeConfig, models []*ServeModel) (*Server, error) {
	return serve.New(cfg, models)
}

// NewServeModels trains spec under each scheme and wraps the results
// as the servable pool (one entry per scheme × precision; int16
// entries quantize the trained float network).
func NewServeModels(cfg ServeConfig, spec core.SparseNetConfig, ds *Dataset, schemes []Scheme, precisions []Precision, cores, epochs int, seed int64) ([]*ServeModel, error) {
	return serve.NewModels(cfg, spec, ds, schemes, precisions, cores, epochs, seed)
}

// NewServeModel wraps one trained model as a servable entry.
func NewServeModel(cfg ServeConfig, tm *TrainedModel, prec Precision, samples []*tensor.Tensor) (*ServeModel, error) {
	return serve.NewModel(cfg, tm, prec, samples)
}

// ServeLoadConfig and ServeLoadReport drive and summarize the load
// generator (closed-loop clients or open-loop Poisson arrivals).
type (
	ServeLoadConfig = serve.LoadConfig
	ServeLoadReport = serve.LoadReport
)

// RunServeLoad drives a request stream at the server and reports
// latency quantiles and sustained QPS.
func RunServeLoad(ctx context.Context, s *Server, cfg ServeLoadConfig) ServeLoadReport {
	return serve.RunLoad(ctx, s, cfg)
}

// Request-scoped tracing (internal/serve): wall-clock lifecycle spans
// that telescope exactly to the total latency, correlated with the
// cycle-accurate timeline record of the batch that served each
// request. See cmd/l2s-serve -serve-trace and cmd/l2s-trace -serve.

// ServeTraceSink receives one record per executed batch and (sampled)
// answered request; attach it via ServeConfig.Trace. A nil sink
// disables tracing at one predictable branch per request.
type ServeTraceSink = serve.TraceSink

// ServeTraceOptions selects the record class (Stable strips volatile
// wall-clock fields for byte-comparison), sampling, and retention.
type ServeTraceOptions = serve.TraceOptions

// NewServeTraceSink builds a sink streaming validated JSONL to w
// (nil w: in-memory only, with Keep).
func NewServeTraceSink(w io.Writer, opt ServeTraceOptions) *ServeTraceSink {
	return serve.NewTraceSink(w, opt)
}

// ServeReqTrace and ServeBatchTrace are the per-request lifecycle span
// chain and the per-batch correlation record.
type (
	ServeReqTrace   = serve.ReqTrace
	ServeBatchTrace = serve.BatchTrace
)

// ServeTraceLog is a validated in-memory serve-trace log.
type ServeTraceLog = serve.TraceLog

// ReadServeTraceLog parses and validates a serve-trace JSONL stream,
// enforcing the telescoping phase decomposition in wall mode and the
// absence of volatile fields in stable mode.
func ReadServeTraceLog(r io.Reader) (*ServeTraceLog, error) { return serve.ReadTraceLog(r) }

// ServeTraceAnalysis attributes latency to lifecycle phases per model,
// with tail blame at the p99 total; see AnalyzeServeTrace.
type ServeTraceAnalysis = serve.TraceAnalysis

// AnalyzeServeTrace computes per-phase latency attribution from a
// wall-clock serve-trace log.
func AnalyzeServeTrace(l *ServeTraceLog) (*ServeTraceAnalysis, error) {
	return serve.AnalyzeTrace(l)
}

// WriteServePerfetto renders the wall-clock serve plane (queue depth,
// batch windows, per-request phase slices) next to the simulated-cycle
// stage tracks of tl as one combined Perfetto trace.
func WriteServePerfetto(w io.Writer, l *ServeTraceLog, tl *TimelineSink, tool string, meta map[string]string) error {
	return serve.WriteServePerfetto(w, l, tl, tool, meta)
}

// Experiment harness — each function regenerates one table or figure
// of the paper; see EXPERIMENTS.md for paper-vs-measured results.

// Table is a printable experiment result.
type Table = core.Table

// Profile selects experiment scale: Quick for smoke runs and tests,
// Default for the full reduced-scale evaluation.
type Profile = core.Profile

// Experiment scale profiles.
const (
	Quick   = core.Quick
	Default = core.Default
)

// Table1 reproduces Table I (per-layer NoC data volumes, analytic).
func Table1(cores int) Table { return core.Table1Table(core.Table1(cores)) }

// Motivation reproduces the §III.B communication-share measurement.
func Motivation(spec NetSpec, cores int) (core.MotivationResult, error) {
	return core.Motivation(spec, cores)
}

// Table3Fig7 reproduces Table III and Fig. 7 (structure-level
// parallelization of the ConvNet variants).
func Table3Fig7(opt core.StructOptions) ([]core.StructRow, error) { return core.Table3Fig7(opt) }

// Table5Fig8 reproduces Table V and Fig. 8 (core-count scaling of
// structure-level parallelization).
func Table5Fig8(opt core.StructOptions, cores []int) ([]core.ScaleRow, error) {
	return core.Table5Fig8(opt, cores)
}

// Table4 reproduces Table IV (communication-aware sparsified
// parallelization of the four benchmark networks).
func Table4(nets []core.SparseNetConfig, cores int, log io.Writer) ([]core.SparseRow, error) {
	return core.Table4(nets, cores, log)
}

// Table4Nets returns the benchmark networks of Table IV at a profile.
func Table4Nets(p Profile) []core.SparseNetConfig { return core.Table4Nets(p) }

// Table6 reproduces Table VI (LeNet sparsified parallelization at
// several core counts).
func Table6(cfg core.SparseNetConfig, cores []int, log io.Writer) ([]core.SparseRow, error) {
	return core.Table6(cfg, cores, log)
}

// Fig6b renders the learned group-occupancy matrix of a trained model.
func Fig6b(m *TrainedModel) string { return core.Fig6b(m) }

// FaultOptions configures FaultSweep, the graceful-degradation
// experiment: all four schemes simulated across a transient fault-rate
// grid, with undelivered transfers zero-filled at evaluation. The
// network, its training recipe, Log and Obs come from the embedded
// core.SweepNetwork, which PipelineSweepOptions shares.
type FaultOptions = core.FaultOptions

// DefaultFaultOptions returns the headline fault sweep on the 16-core
// mesh; QuickFaultOptions shrinks it for smoke runs.
func DefaultFaultOptions() FaultOptions { return core.DefaultFaultOptions() }

// QuickFaultOptions returns the reduced fault sweep used by tests.
func QuickFaultOptions() FaultOptions { return core.QuickFaultOptions() }

// FaultRow is one cell of the fault sweep: one scheme simulated at one
// transient fault rate.
type FaultRow = core.FaultRow

// FaultSweep runs the graceful-degradation experiment and returns one
// row per (scheme, fault rate).
func FaultSweep(opt FaultOptions) ([]FaultRow, error) { return core.FaultSweep(opt) }

// FaultSweepTable formats FaultSweep's rows.
func FaultSweepTable(rows []FaultRow) Table { return core.FaultSweepTable(rows) }

// PipelineSweepOptions configures PipelineSweep, the pipelined-
// inference experiment: all four schemes run through the stage
// scheduler across a pipeline-depth grid. It embeds the same
// core.SweepNetwork as FaultOptions, so the two sweeps train the same
// models.
type PipelineSweepOptions = core.PipelineSweepOptions

// DefaultPipelineSweepOptions returns the headline pipeline sweep on
// the 16-core mesh; QuickPipelineSweepOptions shrinks it for smoke
// runs.
func DefaultPipelineSweepOptions() PipelineSweepOptions { return core.DefaultPipelineSweepOptions() }

// QuickPipelineSweepOptions returns the reduced pipeline sweep used by
// tests.
func QuickPipelineSweepOptions() PipelineSweepOptions { return core.QuickPipelineSweepOptions() }

// PipelineRow is one cell of the pipeline sweep: one scheme run
// through the stage scheduler at one depth.
type PipelineRow = core.PipelineRow

// PipelineSweep runs the pipelined-inference experiment and returns
// one row per (scheme, depth).
func PipelineSweep(opt PipelineSweepOptions) ([]PipelineRow, error) { return core.PipelineSweep(opt) }

// PipelineSweepTable formats PipelineSweep's rows.
func PipelineSweepTable(rows []PipelineRow) Table { return core.PipelineSweepTable(rows) }
