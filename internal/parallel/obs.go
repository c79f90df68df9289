package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"learn2scale/internal/obs"
)

// poolMetrics caches the pool's metric handles so the enabled path
// pays one registry lookup per SetObs, not per call. Every pool
// metric is volatile: callers choose between their serial fallback
// and a parallel primitive based on the worker count, so even the
// call/chunk/item totals differ between worker counts — only the
// *results* of the work are deterministic, not how much of it flowed
// through this pool.
type poolMetrics struct {
	reg    *obs.Registry
	calls  *obs.Counter // parallel primitive invocations
	chunks *obs.Counter // chunks executed
	items  *obs.Counter // index-space elements covered

	mu      sync.Mutex
	busy    []*obs.Counter // volatile: per-slot busy ns
	tasks   []*obs.Counter // volatile: per-slot chunks executed
	maxSlot *obs.Gauge     // volatile: high-water worker slot count
}

// pm is the process-wide observer; nil (the default) disables
// instrumentation at the cost of one atomic load per primitive call.
var pm atomic.Pointer[poolMetrics]

// SetObs attaches a registry to the worker pool's instrumentation (or
// detaches it with nil). The pool is process-global, so this is too;
// CLIs call it once at startup.
func SetObs(r *obs.Registry) {
	if r == nil {
		pm.Store(nil)
		return
	}
	pm.Store(&poolMetrics{
		reg:     r,
		calls:   r.Counter("parallel.calls", obs.Volatile),
		chunks:  r.Counter("parallel.chunks", obs.Volatile),
		items:   r.Counter("parallel.items", obs.Volatile),
		maxSlot: r.Gauge("parallel.workers.high_water", obs.Volatile),
	})
}

// slot returns the busy/tasks counters of one worker slot, growing
// the cache on demand. Slot 0 is the calling goroutine; helpers take
// 1..w-1.
func (p *poolMetrics) slot(i int) (busy, tasks *obs.Counter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.busy) <= i {
		n := len(p.busy)
		name := fmt.Sprintf("parallel.worker.%02d", n)
		p.busy = append(p.busy, p.reg.Counter(name+".busy_ns", obs.Volatile))
		p.tasks = append(p.tasks, p.reg.Counter(name+".tasks", obs.Volatile))
	}
	p.maxSlot.SetMax(float64(i + 1))
	return p.busy[i], p.tasks[i]
}

// recordCall notes one primitive invocation covering n items split
// into the given chunk count.
func (p *poolMetrics) recordCall(n, chunks int) {
	p.calls.Add(1)
	p.chunks.Add(int64(chunks))
	p.items.Add(int64(n))
}

// slotTimer wraps one worker slot's participation in a call: busy
// wall time plus the number of chunks it claimed. The zero slotTimer
// (disabled instrumentation) is inert.
type slotTimer struct {
	busy, tasks *obs.Counter
	t0          time.Time
	n           int64
}

func (p *poolMetrics) startSlot(i int) slotTimer {
	if p == nil {
		return slotTimer{}
	}
	b, tk := p.slot(i)
	return slotTimer{busy: b, tasks: tk, t0: time.Now()}
}

func (st *slotTimer) chunkDone() {
	if st.busy != nil {
		st.n++
	}
}

func (st *slotTimer) stop() {
	if st.busy == nil {
		return
	}
	st.busy.Add(time.Since(st.t0).Nanoseconds())
	st.tasks.Add(st.n)
}
