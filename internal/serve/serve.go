// Package serve is the batched inference serving layer: an in-process
// dispatcher service that holds a pool of trained models (one per
// parallelization scheme, each optionally quantized to int16), each
// with one reusable CMP simulator System, and streams concurrent
// inference requests through them.
//
// The shape mirrors the dispatcher-pod / inference-pod split of
// SEIFER-style distributed inference, collapsed into one process:
//
//   - Admission: requests enter a bounded queue; when it is full they
//     are rejected immediately (the HTTP layer maps this to 429 with a
//     Retry-After hint) so load sheds at the front door instead of
//     growing unbounded latency.
//   - Dynamic batching: a single dispatcher goroutine collects every
//     request that arrives within the batching window (up to MaxBatch)
//     and coalesces the ones bound for the same model into one group,
//     timed as ONE pipelined simulation pass — cmp.RunPipeline at the
//     configured depth with one in-flight batch slot per request — so
//     concurrent load amortizes pipeline fill/drain exactly the way
//     the stage scheduler's steady-state throughput promises. The
//     pass depends only on (model, depth, group size), so a model
//     whose simulator records nothing runs it once per shape and
//     serves later groups of that shape from a memo (see Model).
//   - Routing: the request's model/precision pair selects the servable
//     entry; float32 routes to the trained float network, int16 to its
//     quantized twin (and the simulator models the denser MAC arrays).
//   - Deadlines: each request carries a context; expired or canceled
//     requests are answered with their context error at dispatch time
//     instead of occupying a batch slot.
//   - Drain: Close stops admission, lets the dispatcher finish every
//     queued request, and only then returns — the SIGTERM path of
//     cmd/l2s-serve.
//
// Determinism: the dispatcher executes batches serially and both the
// float and int16 forward paths are bit-identical at any host worker
// count, so a batch of K requests returns logits byte-identical to K
// sequential single-request inferences, and a fixed request script
// (RunScript) produces byte-identical stable flight records and live
// telemetry streams at any -workers value. Batch composition under
// free-running load is timing-dependent, so everything derived from
// wall-clock arrival (queue depth, latency) is Volatile class and
// stays out of deterministic records.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"learn2scale/internal/cmp"
	"learn2scale/internal/core"
	"learn2scale/internal/data"
	"learn2scale/internal/fixed"
	"learn2scale/internal/nn"
	"learn2scale/internal/obs"
	"learn2scale/internal/tensor"
	"learn2scale/internal/timeline"
)

// ModelKey routes a request: one trained scheme at one precision.
type ModelKey struct {
	Scheme    core.Scheme
	Precision fixed.Precision
}

// String renders the key in the request wire form, e.g. "ssmask/int16".
func (k ModelKey) String() string {
	return ModelName(k.Scheme) + "/" + k.Precision.String()
}

// ModelName returns the scheme's lowercase request-wire name
// (core.Scheme.Name).
func ModelName(s core.Scheme) string { return s.Name() }

// ParseModelName parses a request-wire scheme name.
func ParseModelName(s string) (core.Scheme, error) {
	if scheme, ok := core.ParseScheme(s); ok {
		return scheme, nil
	}
	return 0, fmt.Errorf("serve: unknown model %q (want baseline|struct|ss|ssmask)", s)
}

// Model is one servable entry of the pool: a trained scheme at a
// precision, its sample inputs, and its reusable CMP simulator. Only
// the dispatcher goroutine simulates, one batch at a time, so one
// System per model is never contended.
//
// A served group's simulation pass sees no request input: its report
// is a function of the plan, the depth and the group size alone. So
// when the System records nothing (no obs registry, no timeline sink)
// the model memoizes each report by (depth, group size) and simulates
// a shape only the first time it is served. With a registry or a
// timeline attached every group is simulated: the NoC's per-packet
// histograms and per-flit events are not functions of the report, and
// skipping the pass would drop them from the records.
type Model struct {
	Key ModelKey
	TM  *core.TrainedModel

	// Samples are the canned inputs a request may select by index
	// (the dataset's test split); requests may also carry a raw input
	// tensor of matching length.
	Samples []*tensor.Tensor

	inLen int
	sys   *cmp.System

	// sims is the report memo, nil when sys records (the bypass).
	// Cached reports are shared by every group of their shape, so
	// nothing may write into them. simsMu guards the map, which two
	// Servers sharing this Model would otherwise write at once.
	simsMu sync.Mutex
	sims   map[simShape]cmp.PipelineReport

	// mu serializes forward passes: both the float and the quantized
	// network own their scratch buffers, so one (batched) inference
	// runs at a time per model (host workers parallelize inside the
	// kernels).
	mu sync.Mutex
}

// InputLen returns the flattened input length a request must supply.
func (m *Model) InputLen() int { return m.inLen }

// InferBatch runs one batched forward pass over ins on the model's
// datapath and appends the logits of every input, row after row, to
// dst (copied out of the network's reused scratch). Row i is
// bit-identical to Infer(ins[i]): fully-connected layers run the group
// through the packed output-lane kernel, every other layer per sample
// (nn.Network.ForwardBatch, nn.QuantNetwork.ForwardBatch).
func (m *Model) InferBatch(ins []*tensor.Tensor, dst []float32) []float32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var logits *tensor.Tensor
	if m.Key.Precision == fixed.Int16 {
		logits = m.TM.QNet.ForwardBatch(ins)
	} else {
		logits = m.TM.Net.ForwardBatch(ins)
	}
	return append(dst, logits.Data...)
}

// Infer runs one single-input forward pass on the model's datapath
// and appends the logits to dst (copied out of the network's reused
// scratch). It runs the same FC kernels as InferBatch, on a group of
// one; the independent reference for both is the unfrozen network's
// MatVecAcc forward (nn's TestForwardBatchMatchesSequential).
func (m *Model) Infer(in *tensor.Tensor, dst []float32) []float32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var logits *tensor.Tensor
	if m.Key.Precision == fixed.Int16 {
		logits = m.TM.QNet.Forward(in)
	} else {
		logits = m.TM.Net.Forward(in, false)
	}
	return append(dst, logits.Data...)
}

// simShape keys the report memo. The depth is part of it because a
// Model may be served by servers configured at different depths.
type simShape struct{ depth, size int }

// simulate returns the report of one served group's pipeline pass:
// size in-flight batch slots at the given depth. A memo hit costs one
// map lookup; a miss, or any call on a recording System, runs
// RunPipeline. Failed passes are never memoized.
func (m *Model) simulate(depth, size int) (cmp.PipelineReport, error) {
	opt := cmp.PipelineOptions{Depth: depth, Batches: size}
	if m.sims == nil {
		return m.sys.RunPipeline(m.TM.Plan, opt)
	}
	key := simShape{depth, size}
	m.simsMu.Lock()
	rep, ok := m.sims[key]
	m.simsMu.Unlock()
	if ok {
		return rep, nil
	}
	rep, err := m.sys.RunPipeline(m.TM.Plan, opt)
	if err == nil {
		m.simsMu.Lock()
		m.sims[key] = rep
		m.simsMu.Unlock()
	}
	return rep, err
}

// Config configures a Server.
type Config struct {
	// QueueCap bounds the admission queue; a full queue rejects
	// instead of blocking. <= 0 means 64.
	QueueCap int
	// Window is the dynamic-batching window: after the first request
	// of a batch arrives the dispatcher keeps collecting until the
	// window elapses or MaxBatch requests are pending. Zero disables
	// coalescing (every request is its own batch — the batch-size-1
	// serving baseline).
	Window time.Duration
	// MaxBatch caps one collection round. <= 0 means 16.
	MaxBatch int
	// Depth is the pipeline depth batches are simulated at
	// (cmp.PipelineOptions.Depth). <= 0 means 4.
	Depth int
	// Obs, when non-nil, receives the serving-path flight record and
	// live telemetry: stable serve.requests/serve.batches counters and
	// the serve.batch_size / serve.batch_cycles histograms, volatile
	// serve.queue_depth and serve.latency (microseconds), plus
	// everything the CMP simulation itself records. A "serve.batch"
	// telemetry boundary closes at every batch completion.
	Obs *obs.Registry
	// Timeline, when non-nil, receives the cycle-accurate event trace
	// of every simulated batch. Served batches are stitched into one
	// global timeline: each pass's sections are relabeled
	// "serve.gNNN.<layer>" and shifted by the cumulative sim-cycle
	// cursor, so the record passes obscheck -timeline and renders as
	// consecutive batch windows in Perfetto.
	Timeline *timeline.Sink
	// Trace, when non-nil, receives request-scoped lifecycle traces:
	// one BatchTrace per executed group and one ReqTrace per answered
	// request within the sink's sample (see NewTraceSink). A nil sink
	// costs the hot path one branch per request.
	Trace *TraceSink
	// Log receives serving progress lines when non-nil.
	Log io.Writer
}

func (c *Config) fill() {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
}

// Stats is a point-in-time snapshot of the server's request counters.
type Stats struct {
	Admitted  int64 // requests accepted into the queue
	Responded int64 // requests answered (success or per-request error)
	Rejected  int64 // requests refused at admission (queue full / draining)
	Batches   int64 // executed batches (each group's report simulated or memoized)
	BatchMax  int64 // largest coalesced batch so far
}

// Server is the serving layer: a model pool plus the dispatcher.
type Server struct {
	cfg    Config
	models map[ModelKey]*Model
	keys   []ModelKey // deterministic routing/iteration order

	queue chan *pending
	// batchq hands the dispatcher pre-composed batches (script mode),
	// bypassing the arrival-timing window so batch composition is
	// deterministic.
	batchq chan []*pending
	quit   chan struct{}
	done   chan struct{}

	// admit guards admission against Close: submits hold the read
	// side while enqueueing, Close takes the write side to flip
	// closed, so no request can slip into the queue after the
	// dispatcher's final drain.
	admit  sync.RWMutex
	closed bool

	stats struct {
		sync.Mutex
		s Stats
	}

	// traceOn caches cfg.Trace != nil: the per-request hot-path check
	// is one bool load.
	traceOn bool
	// nGroups and simCursor are owned by the dispatcher goroutine:
	// the executed-group ordinal (trace batch IDs) and the cumulative
	// simulated-cycle clock consecutive batch timelines stack onto.
	nGroups   int64
	simCursor int64

	start time.Time
}

// Errors the admission path returns; the HTTP layer maps them to 429
// and 503 respectively.
var (
	ErrOverloaded = errors.New("serve: queue full")
	ErrDraining   = errors.New("serve: server draining")
)

// New builds a server over the given servable models and starts its
// dispatcher. Call Close to drain and stop it.
func New(cfg Config, models []*Model) (*Server, error) {
	cfg.fill()
	if len(models) == 0 {
		return nil, errors.New("serve: no models")
	}
	s := &Server{
		cfg:     cfg,
		models:  make(map[ModelKey]*Model, len(models)),
		queue:   make(chan *pending, cfg.QueueCap),
		batchq:  make(chan []*pending),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		traceOn: cfg.Trace != nil,
		start:   time.Now(),
	}
	for _, m := range models {
		if _, dup := s.models[m.Key]; dup {
			return nil, fmt.Errorf("serve: duplicate model %s", m.Key)
		}
		s.models[m.Key] = m
		s.keys = append(s.keys, m.Key)
	}
	sort.Slice(s.keys, func(i, j int) bool {
		if s.keys[i].Scheme != s.keys[j].Scheme {
			return s.keys[i].Scheme < s.keys[j].Scheme
		}
		return s.keys[i].Precision < s.keys[j].Precision
	})
	go s.dispatch()
	return s, nil
}

// Model returns the servable entry for key, or nil.
func (s *Server) Model(key ModelKey) *Model { return s.models[key] }

// Keys returns the servable model keys in deterministic order.
func (s *Server) Keys() []ModelKey { return append([]ModelKey(nil), s.keys...) }

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	s.stats.Lock()
	defer s.stats.Unlock()
	return s.stats.s
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.admit.RLock()
	defer s.admit.RUnlock()
	return s.closed
}

// Close drains the server: admission stops (new requests get
// ErrDraining), every request already queued is dispatched and
// answered, and the dispatcher exits. Safe to call more than once.
func (s *Server) Close() {
	s.admit.Lock()
	already := s.closed
	s.closed = true
	s.admit.Unlock()
	if !already {
		close(s.quit)
	}
	<-s.done
}

// NewModels trains spec on ds under each requested scheme and builds
// the servable model pool: one entry per (scheme, precision). Int16
// entries share their scheme's trained float network through its
// quantized twin (core.TrainedModel.Quantize), completing the
// "servable quantization" stretch of ROADMAP item 4. The simulators
// are wired to cfg.Obs / cfg.Timeline (either one turns the report
// memo off) and model the precision's MAC density.
func NewModels(cfg Config, spec core.SparseNetConfig, ds *data.Dataset, schemes []core.Scheme, precisions []fixed.Precision, cores, epochs int, seed int64) ([]*Model, error) {
	cfg.fill()
	var out []*Model
	for _, scheme := range schemes {
		opt := spec.TrainOptions(scheme, cores)
		if epochs > 0 {
			opt.SGD.Epochs = epochs
		}
		opt.Seed, opt.Obs, opt.Log = seed, cfg.Obs, cfg.Log
		tm, err := core.Train(scheme, spec.Spec, ds, opt)
		if err != nil {
			return nil, fmt.Errorf("serve: train %s: %w", ModelName(scheme), err)
		}
		quantized := false
		for _, prec := range precisions {
			if prec == fixed.Int16 && !quantized {
				tm.Quantize(ds, nn.CalibConfig{Method: fixed.CalibMaxAbs})
				quantized = true
			}
			m, err := NewModel(cfg, tm, prec, ds.TestX)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// NewModel wraps one trained model as a servable entry at the given
// precision, with its own simulator System. It freezes tm.Net
// (nn.Network.Freeze): serving never trains, so the float network
// packs its FC weights for the output-lane kernel and drops its
// gradient and momentum buffers. The int16 twin, if any, must be
// quantized before or after; calibration runs the frozen forward,
// which is bit-identical to the trainable one.
func NewModel(cfg Config, tm *core.TrainedModel, prec fixed.Precision, samples []*tensor.Tensor) (*Model, error) {
	cfg.fill()
	if prec == fixed.Int16 && tm.QNet == nil {
		return nil, fmt.Errorf("serve: %s/int16: model is not quantized (call Quantize first)", ModelName(tm.Scheme))
	}
	scfg := cmp.DefaultConfig(tm.Plan.Cores)
	scfg.Obs = cfg.Obs
	scfg.Timeline = cfg.Timeline
	scfg.Core.Precision = prec
	sys, err := cmp.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %s/%s: %w", ModelName(tm.Scheme), prec, err)
	}
	tm.Net.Freeze()
	m := &Model{
		Key:     ModelKey{Scheme: tm.Scheme, Precision: prec},
		TM:      tm,
		Samples: samples,
		inLen:   tm.Spec.InC * tm.Spec.InH * tm.Spec.InW,
		sys:     sys,
	}
	if scfg.Obs == nil && scfg.Timeline == nil {
		m.sims = make(map[simShape]cmp.PipelineReport)
	}
	return m, nil
}
