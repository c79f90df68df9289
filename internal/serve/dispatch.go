package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"learn2scale/internal/obs"
	"learn2scale/internal/tensor"
)

// Metric classes of the serving path. Counters driven purely by the
// request stream are Stable: under a fixed script they are
// deterministic at any worker count, so they belong in byte-compared
// flight records. Anything derived from wall-clock timing (latency,
// queue depth, admission rejections under free-running load) is
// Volatile and stays out of deterministic records and live streams.
const (
	requestClass  = obs.Stable
	volatileClass = obs.Volatile
)

// pending is one admitted request waiting for the dispatcher.
type pending struct {
	ctx      context.Context
	key      ModelKey
	in       *tensor.Tensor
	admitted time.Time
	// id is the request's admission ordinal (1-based), assigned under
	// the stats lock — in script mode a pure function of the script, so
	// it is a Stable trace field.
	id int64
	// traced marks a request that asked for its own phase breakdown
	// (?trace=1); such requests are always recorded regardless of the
	// sink's sampling rate, and their Response echoes the ReqTrace.
	traced bool
	// dequeued is stamped when the dispatcher pulls the request off the
	// admission queue; zero unless tracing is active.
	dequeued time.Time
	// resp is buffered(1): the dispatcher's send never blocks even if
	// the waiter abandoned the request.
	resp chan result
}

// result is the dispatcher's answer to one pending request.
type result struct {
	resp *Response
	err  error
}

// Submit admits one request and blocks until it is answered or ctx
// ends. key must name a servable model and in must match its input
// length (the HTTP/script layers validate before calling). Submit is
// safe for arbitrary concurrent use.
func (s *Server) Submit(ctx context.Context, key ModelKey, in *tensor.Tensor) (*Response, error) {
	return s.submit(ctx, key, in, false)
}

// SubmitTraced is Submit with the request's lifecycle trace forced on:
// the Response echoes the phase breakdown (Response.Trace) and the
// request is recorded by the serve-trace sink even outside its sample.
// The HTTP layer maps ?trace=1 here.
func (s *Server) SubmitTraced(ctx context.Context, key ModelKey, in *tensor.Tensor) (*Response, error) {
	return s.submit(ctx, key, in, true)
}

func (s *Server) submit(ctx context.Context, key ModelKey, in *tensor.Tensor, traced bool) (*Response, error) {
	m := s.models[key]
	if m == nil {
		return nil, fmt.Errorf("serve: no model %s", key)
	}
	if len(in.Data) != m.inLen {
		return nil, fmt.Errorf("serve: %s wants input length %d, got %d", key, m.inLen, len(in.Data))
	}
	p := &pending{
		ctx:      ctx,
		key:      key,
		in:       in,
		admitted: time.Now(),
		traced:   traced,
		resp:     make(chan result, 1),
	}
	if err := s.admitOne(p); err != nil {
		s.countRejected()
		return nil, err
	}
	select {
	case r := <-p.resp:
		return r.resp, r.err
	case <-ctx.Done():
		// The slot stays queued; the dispatcher answers into the
		// buffered channel and nobody reads it. Accounting still sees
		// exactly one response for the request.
		return nil, ctx.Err()
	}
}

// admitOne places p on the bounded queue without blocking. The read
// lock excludes Close's closed-flag flip, so no request is enqueued
// after the dispatcher's final drain began.
//
// The admission ordinal is assigned and the request published inside
// ONE stats critical section: p.id is written before the dispatcher
// can possibly see p (no unsynchronized read in traceRequest /
// sampled), and holding the lock across the non-blocking send keeps
// ordinals ascending in queue order under concurrent submitters — the
// property ReadTraceLog's strictly-increasing-ID check relies on. The
// overflow path hands the ordinal back so the counter stays dense.
// The send cannot block while the lock is held (default branch), so
// no lock-ordering hazard with the dispatcher's own stats use.
func (s *Server) admitOne(p *pending) error {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.closed {
		return ErrDraining
	}
	s.stats.Lock()
	s.stats.s.Admitted++
	p.id = s.stats.s.Admitted
	var depth int
	select {
	case s.queue <- p:
		depth = len(s.queue)
	default:
		s.stats.s.Admitted--
		p.id = 0
		s.stats.Unlock()
		return ErrOverloaded
	}
	s.stats.Unlock()
	s.noteAdmitted(depth)
	return nil
}

// stampDequeued marks the moment the dispatcher pulled p off the
// admission queue — the queue→batch phase boundary. One branch when
// tracing is off (the cost BenchmarkServeTraceOverhead* gates).
func (s *Server) stampDequeued(p *pending) {
	if s.traceOn || p.traced {
		p.dequeued = time.Now()
	}
}

// dispatch is the single dispatcher goroutine: it collects batches
// from the queue and executes them serially. One executor keeps the
// serving path deterministic — batches never interleave, so the shared
// sim.layer.* gauge sequences and telemetry boundaries appear in
// arrival order.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		var first *pending
		select {
		case first = <-s.queue:
			s.stampDequeued(first)
		case batch := <-s.batchq:
			s.executeScripted(batch)
			continue
		case <-s.quit:
			// Drain: admission is closed, so the queue can only
			// shrink. Finish everything left, then exit.
			for {
				select {
				case p := <-s.queue:
					s.stampDequeued(p)
					s.execute(s.collect(p))
				case batch := <-s.batchq:
					s.executeScripted(batch)
				default:
					return
				}
			}
		}
		s.execute(s.collect(first))
	}
}

// executeScripted admits and executes a pre-composed (script-mode)
// batch. Each request gets its admission ordinal, the deterministic
// trace ID: the dispatcher is single-threaded, so the stream of
// ordinals is a pure function of the script. Counting here rather
// than in the submitter orders step i+1's serve.requests increments
// after step i's serve.batch window edge: the submitter may see step
// i's responses before execute's recordBatch closes that window.
func (s *Server) executeScripted(batch []*pending) {
	for _, p := range batch {
		s.stats.Lock()
		s.stats.s.Admitted++
		p.id = s.stats.s.Admitted
		s.stats.Unlock()
		s.noteAdmitted(len(s.queue))
	}
	s.execute(batch)
}

// collect gathers the dynamic batch seeded by first: everything
// already queued, then everything arriving within the batching window,
// up to MaxBatch. Window 0 means batch-size-1 serving.
func (s *Server) collect(first *pending) []*pending {
	batch := []*pending{first}
	if s.cfg.Window <= 0 {
		return batch
	}
	timer := time.NewTimer(s.cfg.Window)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			s.stampDequeued(p)
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-s.quit:
			// Drain mode: take what is queued right now and go.
			for len(batch) < s.cfg.MaxBatch {
				select {
				case p := <-s.queue:
					s.stampDequeued(p)
					batch = append(batch, p)
				default:
					return batch
				}
			}
			return batch
		}
	}
	return batch
}

// execute answers one collected batch: requests are grouped by model
// in deterministic key order, each group's timing is ONE pipelined
// simulation pass (cmp.RunPipeline at the configured depth, one
// in-flight batch slot per request, read from the model's memo when
// that shape was served before — Model.simulate), and each request's
// logits come from the group's one batched forward pass on the
// model's datapath.
func (s *Server) execute(batch []*pending) {
	// Expired requests are answered immediately and occupy no slot.
	// A fresh slice, not batch[:0]: script mode hands us a slice the
	// submitter still reads, so the backing array must stay untouched.
	live := make([]*pending, 0, len(batch))
	for _, p := range batch {
		// Pre-composed batches (script mode) never cross the admission
		// queue; their dequeue stamp is the moment execution begins.
		if p.dequeued.IsZero() {
			s.stampDequeued(p)
		}
		if err := p.ctx.Err(); err != nil {
			// Count before the send: once a waiter unblocks, the
			// stats must already balance.
			s.countResponded(time.Since(p.admitted))
			p.resp <- result{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	// Group by model key, keys in deterministic order, arrival order
	// within a group.
	groups := make(map[ModelKey][]*pending)
	var keys []ModelKey
	for _, p := range live {
		if groups[p.key] == nil {
			keys = append(keys, p.key)
		}
		groups[p.key] = append(groups[p.key], p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Scheme != keys[j].Scheme {
			return keys[i].Scheme < keys[j].Scheme
		}
		return keys[i].Precision < keys[j].Precision
	})
	for _, key := range keys {
		s.executeGroup(s.models[key], groups[key])
	}
	s.recordBatch(len(live))
}

// executeGroup runs one model's slice of the batch: the report of a
// pipeline pass with len(group) in-flight batch slots (Model.simulate),
// then one batched forward pass for the logits of every request
// (Model.InferBatch).
//
// When tracing is active (a serve-trace sink is configured, or any
// group member asked via ?trace=1) the group's lifecycle stamps are
// taken here: sim-pass start/end around Model.simulate, the group's one
// logits-ready stamp after the batched forward, and per-request
// answered stamps in the respond loop. Phases are
// consecutive monotonic-stamp differences, so the decomposition
// telescopes exactly — queue+batch+sim+dequant+respond == total as an
// int64 identity. All of it is pure observation: batch IDs, the
// sim-cycle cursor and the timeline relabel/shift below depend only on
// the request stream, never on the stamps.
func (s *Server) executeGroup(m *Model, group []*pending) {
	// The configured depth is a ceiling: a pipeline cannot have more
	// stages than the model has synaptic layers (or cores).
	depth := s.cfg.Depth
	if l := len(m.TM.Plan.Layers); depth > l {
		depth = l
	}
	if depth > m.TM.Plan.Cores {
		depth = m.TM.Plan.Cores
	}
	trace := s.traceOn
	if !trace {
		for _, p := range group {
			if p.traced {
				trace = true
				break
			}
		}
	}
	secLo := 0
	if s.cfg.Timeline != nil {
		secLo = len(s.cfg.Timeline.Sections())
	}
	var simStart, simEnd time.Time
	if trace {
		simStart = time.Now()
	}
	report, simErr := m.simulate(depth, len(group))
	if trace {
		simEnd = time.Now()
	}
	var batchID int64
	simBase := s.simCursor
	secHi := secLo
	if simErr == nil {
		s.nGroups++
		batchID = s.nGroups
		// A served batch's timeline sections were registered by
		// RunPipeline with run-local start cycles. Stitch them into the
		// server's single global timeline: prefix the labels with the
		// batch ordinal and shift every start by the cumulative
		// sim-cycle cursor, so consecutive batches stack end to end and
		// the record passes timeline.ReadRecord. Deterministic: the
		// cursor advances by the pass's TotalCycles, a pure function of
		// the request stream.
		if tl := s.cfg.Timeline; tl != nil {
			secs := tl.Sections()
			secHi = len(secs)
			prefix := fmt.Sprintf("serve.g%03d.", batchID)
			for _, sec := range secs[secLo:] {
				sec.Label = prefix + sec.Label
				sec.SetStart(sec.Start + simBase)
			}
		}
		s.simCursor += report.TotalCycles
	}
	if sink := s.cfg.Trace; sink != nil && simErr == nil {
		sink.observeBatch(BatchTrace{
			ID:        batchID,
			Model:     ModelName(m.Key.Scheme),
			Precision: m.Key.Precision.String(),
			Size:      len(group),
			Depth:     depth,
			SimBase:   simBase,
			SimTotal:  report.TotalCycles,
			SecLo:     secLo,
			SecHi:     secHi,
			StartNS:   simStart.Sub(s.start).Nanoseconds(),
			SimNS:     simEnd.Sub(simStart).Nanoseconds(),
		})
	}
	// One batched forward pass answers the whole group; every member's
	// logits are ready at the same inferDone stamp.
	var logits []float32
	var inferDone time.Time
	if simErr == nil {
		ins := make([]*tensor.Tensor, len(group))
		for i, p := range group {
			ins[i] = p.in
		}
		logits = m.InferBatch(ins, nil)
		if trace {
			inferDone = time.Now()
		}
	}
	classes := len(logits) / len(group)
	for i, p := range group {
		s.countResponded(time.Since(p.admitted))
		if simErr != nil {
			p.resp <- result{err: fmt.Errorf("serve: simulate %s: %w", m.Key, simErr)}
			continue
		}
		logits := logits[i*classes : (i+1)*classes : (i+1)*classes]
		// A request has stamps only if the sink is on or it asked
		// itself; a lone ?trace=1 member must not fabricate phases for
		// its unstamped batchmates.
		stamped := s.traceOn || p.traced
		class, best := 0, logits[0]
		for c := 1; c < len(logits); c++ {
			if logits[c] > best {
				class, best = c, logits[c]
			}
		}
		resp := &Response{
			Model:     ModelName(m.Key.Scheme),
			Precision: m.Key.Precision.String(),
			Class:     class,
			Logits:    logits,
			BatchSize: len(group),
			SimCycles: report.Completions[i],
			LatencyUS: time.Since(p.admitted).Microseconds(),
		}
		if stamped {
			s.traceRequest(m, p, resp, i, len(group), batchID, simBase,
				simStart, simEnd, inferDone)
		}
		p.resp <- result{resp: resp}
	}
}

// traceRequest builds one answered request's ReqTrace from its stamp
// chain, feeds the volatile phase histograms, echoes it on the
// Response when the request asked, and hands it to the serve-trace
// sink when sampled.
func (s *Server) traceRequest(m *Model, p *pending, resp *Response, slot, size int, batchID, simBase int64, simStart, simEnd, inferDone time.Time) {
	responded := time.Now()
	rt := ReqTrace{
		ID:        p.id,
		Model:     resp.Model,
		Precision: resp.Precision,
		Batch:     batchID,
		Slot:      slot,
		BatchSize: size,
		Class:     resp.Class,
		SimBase:   simBase,
		SimCycles: resp.SimCycles,
		AdmitNS:   p.admitted.Sub(s.start).Nanoseconds(),
		QueueNS:   p.dequeued.Sub(p.admitted).Nanoseconds(),
		BatchNS:   simStart.Sub(p.dequeued).Nanoseconds(),
		SimNS:     simEnd.Sub(simStart).Nanoseconds(),
		DequantNS: inferDone.Sub(simEnd).Nanoseconds(),
		RespondNS: responded.Sub(inferDone).Nanoseconds(),
		TotalNS:   responded.Sub(p.admitted).Nanoseconds(),
	}
	if r := s.cfg.Obs; r != nil {
		// Wall-clock phase attribution is Volatile like serve.latency:
		// visible on /metrics and in timing records, excluded from
		// byte-compared stable records and the deterministic live
		// stream — which is what keeps tracing pure observation.
		for ph, d := range rt.Phases() {
			r.Histogram("serve.phase."+PhaseNames[ph]+"_us", volatileClass, latencyBoundsUS).
				Observe(d / 1e3)
		}
	}
	if p.traced {
		echo := rt
		resp.Trace = &echo
	}
	if sink := s.cfg.Trace; sink != nil && (p.traced || sink.sampled(p.id)) {
		sink.observeReq(rt)
	}
}

// --- counters and telemetry -------------------------------------------

// noteAdmitted feeds the admission telemetry.
func (s *Server) noteAdmitted(depth int) {
	if r := s.cfg.Obs; r != nil {
		r.Counter("serve.requests", requestClass).Add(1)
		// Queue depth is timing-dependent → volatile.
		r.Gauge("serve.queue_depth", volatileClass).Set(float64(depth))
	}
}

func (s *Server) countRejected() {
	s.stats.Lock()
	s.stats.s.Rejected++
	s.stats.Unlock()
	if r := s.cfg.Obs; r != nil {
		r.Counter("serve.rejected", volatileClass).Add(1)
	}
}

func (s *Server) countResponded(latency time.Duration) {
	s.stats.Lock()
	s.stats.s.Responded++
	s.stats.Unlock()
	if r := s.cfg.Obs; r != nil {
		r.Counter("serve.responses", requestClass).Add(1)
		r.Histogram("serve.latency", volatileClass, latencyBoundsUS).
			Observe(latency.Microseconds())
	}
}

// recordBatch records one completed batch pass and closes a telemetry
// window at the batch boundary — the live plane's deterministic window
// edge for the serving path.
func (s *Server) recordBatch(size int) {
	s.stats.Lock()
	s.stats.s.Batches++
	if int64(size) > s.stats.s.BatchMax {
		s.stats.s.BatchMax = int64(size)
	}
	s.stats.Unlock()
	if r := s.cfg.Obs; r != nil {
		r.Counter("serve.batches", requestClass).Add(1)
		r.Histogram("serve.batch_size", requestClass, batchBounds).Observe(int64(size))
		r.Boundary("serve.batch", float64(size))
	}
}

var (
	// latencyBoundsUS buckets serve.latency in microseconds: 100µs …
	// ~10s in roughly 3x steps.
	latencyBoundsUS = []int64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000, 3000000, 10000000}
	// batchBounds buckets serve.batch_size.
	batchBounds = []int64{1, 2, 4, 8, 16, 32, 64}
)
