// Package obs is the repository's flight-recorder observability
// layer: a dependency-free, concurrency-safe metrics registry —
// counters, gauges, fixed-bucket histograms and hierarchical timed
// spans — with deterministic snapshot ordering and JSON/CSV export of
// a per-run "flight record" artifact.
//
// Two properties shape the design:
//
//  1. Nil is off. Every method is safe on a nil *Registry, nil
//     *Counter, nil *Gauge, nil *Histogram and zero Timing; the
//     disabled path is a pointer check, with no clock reads and no
//     allocations, so instrumentation can stay inline in the compute
//     hot paths (conv forward, NoC stepping) at near-zero cost.
//
//  2. Stable vs volatile. Metrics are registered with a Class. Stable
//     metrics are pure functions of the workload — simulated cycle
//     counts, packet-latency histograms, per-epoch losses — and the
//     parallel runtime's determinism contract (see internal/parallel)
//     makes them bit-identical at every host worker count. Volatile
//     metrics depend on the wall clock or the scheduler: span
//     durations, per-worker busy time, task-steal counts. A flight
//     record contains the stable metrics by default and segregates
//     everything volatile into an optional "profile" section, so the
//     default record of a run is byte-identical across -workers
//     values and golden tests stay bit-stable.
//
// Snapshot ordering is deterministic: every section is sorted by
// metric name (span sections by path), never by registration or map
// iteration order.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class partitions metrics by reproducibility.
type Class uint8

const (
	// Stable metrics are pure functions of the workload and are
	// bit-identical at every host worker count.
	Stable Class = iota
	// Volatile metrics depend on the wall clock or goroutine
	// scheduling (durations, per-worker breakdowns) and vary between
	// runs. They are exported only in a record's profile section.
	Volatile
)

// Tap observes metric updates as they happen — the hook the live
// telemetry plane (internal/obs/live) uses to maintain windowed
// aggregates without a second instrumentation pass. A registry has at
// most one tap (SetTap); all of its metrics share it. Implementations
// must be safe for concurrent use: taps fire from whatever goroutine
// performed the update. Span timings are never tapped — they are
// inherently volatile wall-clock quantities with no windowed meaning.
type Tap interface {
	// TapCounter fires after a counter add. Deltas commute, so any
	// order-independent aggregate of them (per-window sums, rates) is
	// deterministic whenever the adds themselves are.
	TapCounter(name string, class Class, delta int64)
	// TapGauge fires after a gauge write. isMax marks a successful
	// SetMax raise: raises form an increasing sequence but their tap
	// callbacks may arrive out of order, so only order-independent
	// aggregates (window high-water) are deterministic for them;
	// last-value semantics apply only to plain Sets, which the repo's
	// determinism contract requires to happen in serial sections.
	TapGauge(name string, class Class, v float64, isMax bool)
	// TapHistogram fires per observation. Observations commute.
	TapHistogram(name string, class Class, v int64)
	// TapBoundary marks a deterministic window boundary — a training
	// epoch end, a simulation run completing — announced through
	// Registry.Boundary by the instrumented code itself. span is the
	// boundary's extent in its own stable unit (epochs, simulated
	// cycles); it is never wall time.
	TapBoundary(label string, span float64)
}

// Registry holds a run's metrics. The zero value is not usable; use
// New. A nil *Registry is the disabled sink: every operation on it
// (and on the nil metrics it hands out) is a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      map[string]*Span
	start      time.Time

	// tap is shared by every metric the registry hands out: one atomic
	// load on the enabled update path, a nil check when no tap is
	// attached. (The nil-*Registry path never reaches it at all.)
	tap atomic.Pointer[Tap]
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		spans:      make(map[string]*Span),
		start:      time.Now(),
	}
}

// SetTap attaches t as the registry's single update observer (or
// detaches with nil). Metrics created before and after both report to
// it; only updates performed after the attach are seen, so taps meant
// to see a whole run must attach before work starts. No-op on a nil
// registry.
func (r *Registry) SetTap(t Tap) {
	if r == nil {
		return
	}
	if t == nil {
		r.tap.Store(nil)
		return
	}
	r.tap.Store(&t)
}

// Boundary announces a deterministic window boundary to the attached
// tap: instrumented code calls it at stable points of the workload —
// an epoch end, a simulation run completing — with the boundary's
// extent in its own stable unit (epochs, simulated cycles). No-op on a
// nil registry or without a tap, so hot paths may call it inline.
func (r *Registry) Boundary(label string, span float64) {
	if r == nil {
		return
	}
	if t := r.tap.Load(); t != nil {
		(*t).TapBoundary(label, span)
	}
}

// Counter returns the named counter, creating it on first use. The
// class of an existing counter is not changed. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string, class Class) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name, class: class, tap: &r.tap}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name string, class Class) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name, class: class, tap: &r.tap}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it on
// first use with the given upper bounds (ascending; an implicit
// overflow bucket is appended). The bounds of an existing histogram
// are not changed. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, class Class, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		h = &Histogram{name: name, class: class, bounds: b, buckets: make([]int64, len(b)+1), tap: &r.tap}
		r.histograms[name] = h
	}
	return h
}

// Span returns the node for a hierarchical span path such as
// "train/epoch03/conv2", creating it on first use. Span hit counts
// are stable; accumulated durations are inherently volatile. Returns
// nil on a nil registry.
func (r *Registry) Span(path string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[path]
	if !ok {
		s = &Span{path: path}
		r.spans[path] = s
	}
	return s
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name  string
	class Class
	v     atomic.Int64
	tap   *atomic.Pointer[Tap] // shared with the owning registry; nil on hand-built counters
}

// Add increments the counter. No-op on nil.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
	if c.tap != nil {
		if t := c.tap.Load(); t != nil {
			(*t).TapCounter(c.name, c.class, d)
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric with last-write-wins Set and a
// monotonic SetMax for high-water marks.
type Gauge struct {
	name  string
	class Class
	bits  atomic.Uint64
	tap   *atomic.Pointer[Tap]
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	if g.tap != nil {
		if t := g.tap.Load(); t != nil {
			(*t).TapGauge(g.name, g.class, v, false)
		}
	}
}

// SetMax raises the gauge to v if v is larger — an order-independent
// high-water mark, safe under concurrent observers. No-op on nil.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			if g.tap != nil {
				if t := g.tap.Load(); t != nil {
					(*t).TapGauge(g.name, g.class, v, true)
				}
			}
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts int64 observations into fixed buckets: bucket i
// counts v <= bounds[i], the final bucket the overflow. Bucket counts
// of stable histograms are order-independent (additions commute), so
// concurrent observers — e.g. per-layer NoC simulations on different
// host workers — still produce deterministic snapshots.
type Histogram struct {
	name    string
	class   Class
	bounds  []int64
	buckets []int64 // accessed atomically
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	tap     *atomic.Pointer[Tap]
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	atomic.AddInt64(&h.buckets[i], 1)
	h.count.Add(1)
	h.sum.Add(v)
	if h.tap != nil {
		if t := h.tap.Load(); t != nil {
			(*t).TapHistogram(h.name, h.class, v)
		}
	}
	for {
		old := h.max.Load()
		if old >= v {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Span is one node of the hierarchical span tree. Start/Stop pairs
// accumulate hit count, total and maximum duration.
type Span struct {
	path  string
	count atomic.Int64
	total atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

// Timing is an in-flight span measurement. The zero Timing (from a
// nil Span) is inert.
type Timing struct {
	s  *Span
	t0 time.Time
}

// Start begins one timed region. On a nil span it returns the inert
// zero Timing without reading the clock.
func (s *Span) Start() Timing {
	if s == nil {
		return Timing{}
	}
	return Timing{s: s, t0: time.Now()}
}

// Stop ends the region, accumulating count and duration. No-op on the
// zero Timing.
func (t Timing) Stop() { t.StopN(1) }

// StopN ends the region as n hits that together took its duration:
// one call that does the work of n (a layer running a group of n
// examples) counts as the n calls it replaces. The maximum records the
// region's whole duration. No-op on the zero Timing.
func (t Timing) StopN(n int64) {
	if t.s == nil {
		return
	}
	d := time.Since(t.t0).Nanoseconds()
	t.s.count.Add(n)
	t.s.total.Add(d)
	for {
		old := t.s.max.Load()
		if old >= d {
			break
		}
		if t.s.max.CompareAndSwap(old, d) {
			break
		}
	}
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram in a snapshot. Counts has one entry
// per bound plus the overflow bucket.
type HistogramSnap struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// SpanSnap is one span node in a snapshot. TotalNS/MaxNS are zero in
// the stable section and populated only in a profile section.
type SpanSnap struct {
	Path    string `json:"path"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns,omitempty"`
	MaxNS   int64  `json:"max_ns,omitempty"`
}

// Snapshot is a point-in-time copy of one class of a registry's
// metrics, every section sorted by name so serialization is
// deterministic.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
	Spans      []SpanSnap      `json:"spans"`
}

// SnapshotClass copies the metrics of one class. Span nodes are
// listed under Stable with hit counts only; their durations appear
// under Volatile. Ordering is deterministic: each section is sorted
// by metric name regardless of registration order. Returns the zero
// Snapshot on a nil registry.
func (r *Registry) SnapshotClass(class Class) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if c.class == class {
			s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.v.Load()})
		}
	}
	for name, g := range r.gauges {
		if g.class == class {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: math.Float64frombits(g.bits.Load())})
		}
	}
	for name, h := range r.histograms {
		if h.class != class {
			continue
		}
		hs := HistogramSnap{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Max:    h.max.Load(),
		}
		for i := range h.buckets {
			hs.Counts[i] = atomic.LoadInt64(&h.buckets[i])
		}
		s.Histograms = append(s.Histograms, hs)
	}
	for path, sp := range r.spans {
		snap := SpanSnap{Path: path, Count: sp.count.Load()}
		if class == Volatile {
			snap.TotalNS = sp.total.Load()
			snap.MaxNS = sp.max.Load()
		}
		s.Spans = append(s.Spans, snap)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Path < s.Spans[j].Path })
	return s
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 &&
		len(s.Histograms) == 0 && len(s.Spans) == 0
}
