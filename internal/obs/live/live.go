// Package live is the streaming telemetry plane: it taps the obs
// registry's update stream (obs.Tap — no second instrumentation pass,
// and the nil-registry hot path stays untouched) and maintains
// windowed aggregates — per-window deltas and rates for counters,
// last-value and high-water for gauges, mergeable log-bucketed
// histogram snapshots with p50/p90/p99 estimation — emitted as a JSONL
// stream of window snapshots, exposed as Prometheus/OpenMetrics text
// on /metrics, and judged by a per-window health-rule engine.
//
// Windows close in one of two modes:
//
//   - Deterministic (the default): the instrumented code itself
//     announces boundaries through Registry.Boundary at stable points
//     of the workload — a training epoch ending, a simulation run
//     completing — with spans measured in epochs or simulated cycles.
//     Only Stable-class metrics enter snapshots, every aggregate is
//     order-independent (sums, maxima, bucket counts), and boundaries
//     are announced from serial sections, so the whole JSONL stream is
//     byte-identical at every host worker count: the repo's
//     record-identity contract extended to live telemetry.
//
//   - Wall-clock: a ticker closes windows on a fixed period and
//     volatile metrics (pool utilization, span-adjacent counters) are
//     included. This is the mode for watching long real runs; its
//     streams are honest about being nondeterministic.
package live

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learn2scale/internal/obs"
)

// Config configures a Plane.
type Config struct {
	// Clock switches to wall-clock windows of the given period. Zero
	// keeps the deterministic mode: windows close only on
	// Registry.Boundary announcements and volatile metrics are
	// excluded, making the snapshot stream byte-identical at every
	// host worker count.
	Clock time.Duration
	// Out receives one JSON window snapshot per line. Nil keeps only
	// the latest snapshot in memory (for /metrics quantiles).
	Out io.Writer
	// Rules are evaluated against every closed window; violations
	// accumulate and surface through Violations / CheckHealth.
	Rules []Rule
}

// Plane is the streaming telemetry plane. Attach it to a registry
// with Registry.SetTap; it is safe for concurrent use — tap callbacks
// arrive from whatever goroutine performed the metric update.
type Plane struct {
	cfg Config

	mu       sync.RWMutex
	counters map[string]*counterCell
	gauges   map[string]*gaugeCell
	hists    map[string]*histCell

	winMu      sync.Mutex
	window     int64
	last       *WindowSnap
	lastStored atomic.Pointer[WindowSnap]
	violations []Violation
	werr       error

	ticker *time.Ticker
	done   chan struct{}
	wg     sync.WaitGroup
}

// New creates a plane. In wall-clock mode (cfg.Clock > 0) the caller
// must Start it; in deterministic mode windows close on boundary
// announcements alone.
func New(cfg Config) *Plane {
	return &Plane{
		cfg:      cfg,
		counters: make(map[string]*counterCell),
		gauges:   make(map[string]*gaugeCell),
		hists:    make(map[string]*histCell),
	}
}

// Start launches the wall-clock ticker when the plane is in clock
// mode; no-op otherwise.
func (p *Plane) Start() {
	if p == nil || p.cfg.Clock == 0 || p.ticker != nil {
		return
	}
	p.ticker = time.NewTicker(p.cfg.Clock)
	p.done = make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.ticker.C:
				p.closeWindow("tick", p.cfg.Clock.Seconds())
			case <-p.done:
				return
			}
		}
	}()
}

// Close stops the ticker (clock mode), closes one final catch-all
// window so updates after the last boundary are not lost, and returns
// the first stream-write error, if any. Health violations are NOT an
// error here — read them with Violations or CheckHealth, so callers
// can both flush the stream and report the verdict.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	if p.ticker != nil {
		p.ticker.Stop()
		close(p.done)
		p.wg.Wait()
		p.ticker = nil
	}
	span := 1.0
	if p.cfg.Clock > 0 {
		span = p.cfg.Clock.Seconds()
	}
	p.closeWindow("final", span)
	p.winMu.Lock()
	defer p.winMu.Unlock()
	return p.werr
}

// Last returns the most recently closed window snapshot (nil before
// the first close). Used by the /metrics exposition for windowed
// quantiles and rates.
func (p *Plane) Last() *WindowSnap {
	if p == nil {
		return nil
	}
	return p.lastStored.Load()
}

// Violations returns the health-rule violations recorded so far.
func (p *Plane) Violations() []Violation {
	if p == nil {
		return nil
	}
	p.winMu.Lock()
	defer p.winMu.Unlock()
	return append([]Violation(nil), p.violations...)
}

// skip reports whether updates of the given class stay out of the
// plane: deterministic mode admits only stable metrics.
func (p *Plane) skip(class obs.Class) bool {
	return p.cfg.Clock == 0 && class != obs.Stable
}

// --- obs.Tap ---

// TapCounter accumulates a counter delta into the current window.
func (p *Plane) TapCounter(name string, class obs.Class, delta int64) {
	if p.skip(class) {
		return
	}
	c := p.counter(name)
	c.delta.Add(delta)
	c.total.Add(delta)
}

// TapGauge records a gauge write: last value (plain Sets only — the
// determinism contract requires those to happen in serial sections)
// and an order-independent window high-water that SetMax raises also
// feed.
func (p *Plane) TapGauge(name string, class obs.Class, v float64, isMax bool) {
	if p.skip(class) {
		return
	}
	g := p.gauge(name)
	if !isMax {
		g.last.Store(math.Float64bits(v))
		g.sets.Add(1)
	}
	casFloatMax(&g.high, v)
	g.events.Add(1)
}

// TapHistogram folds one observation into the window's log-bucketed
// histogram: bucket i (i >= 1) covers [2^(i-1), 2^i), bucket 0 covers
// v <= 0.
func (p *Plane) TapHistogram(name string, class obs.Class, v int64) {
	if p.skip(class) {
		return
	}
	h := p.hist(name)
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	casIntMax(&h.max, v)
	casIntMin(&h.min, v)
}

// TapBoundary closes the current window in deterministic mode; clock
// mode ignores boundaries (its ticker owns the cadence).
func (p *Plane) TapBoundary(label string, span float64) {
	if p.cfg.Clock != 0 {
		return
	}
	if span <= 0 {
		span = 1
	}
	p.closeWindow(label, span)
}

// --- cells ---

type counterCell struct {
	delta atomic.Int64 // this window
	total atomic.Int64 // since attach
}

type gaugeCell struct {
	last   atomic.Uint64 // bits of the last plain Set
	sets   atomic.Int64  // plain Sets this window
	high   atomic.Uint64 // bits of the window high-water (Sets and SetMax raises)
	events atomic.Int64  // any update this window
}

// histBuckets is bucket 0 (v <= 0) plus one bucket per power of two
// up to 2^63.
const histBuckets = 65

type histCell struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64
}

func (p *Plane) counter(name string) *counterCell {
	p.mu.RLock()
	c := p.counters[name]
	p.mu.RUnlock()
	if c != nil {
		return c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c = p.counters[name]; c == nil {
		c = &counterCell{}
		p.counters[name] = c
	}
	return c
}

func (p *Plane) gauge(name string) *gaugeCell {
	p.mu.RLock()
	g := p.gauges[name]
	p.mu.RUnlock()
	if g != nil {
		return g
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if g = p.gauges[name]; g == nil {
		g = &gaugeCell{}
		g.high.Store(math.Float64bits(math.Inf(-1)))
		p.gauges[name] = g
	}
	return g
}

func (p *Plane) hist(name string) *histCell {
	p.mu.RLock()
	h := p.hists[name]
	p.mu.RUnlock()
	if h != nil {
		return h
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if h = p.hists[name]; h == nil {
		h = &histCell{}
		h.max.Store(math.MinInt64)
		h.min.Store(math.MaxInt64)
		p.hists[name] = h
	}
	return h
}

// --- window close ---

// closeWindow snapshots and resets every cell's window state, emits
// the snapshot as one JSONL line, and evaluates the health rules
// against it. In deterministic mode it is only reached from serial
// sections of the workload (boundary announcements), so the snapshot
// is a consistent cut; in clock mode a concurrent update may land on
// either side of the cut, which wall-clock windows tolerate by
// design.
func (p *Plane) closeWindow(label string, span float64) {
	p.winMu.Lock()
	defer p.winMu.Unlock()

	snap := &WindowSnap{Window: p.window, Label: label, Span: span}
	p.window++

	p.mu.RLock()
	for name, c := range p.counters {
		d := c.delta.Swap(0)
		if d == 0 {
			continue
		}
		snap.Counters = append(snap.Counters, CounterWin{
			Name: name, Delta: d, Total: c.total.Load(), Rate: float64(d) / span,
		})
	}
	for name, g := range p.gauges {
		ev := g.events.Swap(0)
		if ev == 0 {
			continue
		}
		gw := GaugeWin{
			Name: name,
			High: math.Float64frombits(g.high.Swap(math.Float64bits(math.Inf(-1)))),
			Sets: g.sets.Swap(0),
		}
		if gw.Sets > 0 {
			gw.Last = math.Float64frombits(g.last.Load())
		} else {
			gw.Last = gw.High // only SetMax raises this window
		}
		snap.Gauges = append(snap.Gauges, gw)
	}
	for name, h := range p.hists {
		n := h.count.Swap(0)
		if n == 0 {
			continue
		}
		hw := HistWin{
			Name:  name,
			Count: n,
			Sum:   h.sum.Swap(0),
			Max:   h.max.Swap(math.MinInt64),
			Min:   h.min.Swap(math.MaxInt64),
		}
		for i := range h.buckets {
			if bn := h.buckets[i].Swap(0); bn != 0 {
				hw.Buckets = append(hw.Buckets, Bucket{Idx: i, N: bn})
			}
		}
		sort.Slice(hw.Buckets, func(i, j int) bool { return hw.Buckets[i].Idx < hw.Buckets[j].Idx })
		hw.P50 = bucketQuantile(hw, 0.50)
		hw.P90 = bucketQuantile(hw, 0.90)
		hw.P99 = bucketQuantile(hw, 0.99)
		snap.Hists = append(snap.Hists, hw)
	}
	p.mu.RUnlock()

	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })

	for _, r := range p.cfg.Rules {
		if v, ok := r.Eval(snap); ok {
			p.violations = append(p.violations, Violation{Window: snap.Window, Rule: r.String(), Value: v})
		}
	}

	p.last = snap
	p.lastStored.Store(snap)
	if p.cfg.Out != nil && p.werr == nil {
		line, err := json.Marshal(snap)
		if err == nil {
			line = append(line, '\n')
			_, err = p.cfg.Out.Write(line)
		}
		if err != nil {
			p.werr = err
		}
	}
}

// --- atomic helpers ---

func casFloatMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casIntMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if old >= v {
			return
		}
		if a.CompareAndSwap(old, v) {
			return
		}
	}
}

func casIntMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if old <= v {
			return
		}
		if a.CompareAndSwap(old, v) {
			return
		}
	}
}
