// Package parallel is the host-side execution runtime: a bounded
// worker pool with deterministic chunked reduction, used to spread the
// repository's compute hot paths (im2col GEMMs, per-example batch
// gradients, group-Lasso penalties, NoC layer simulation, experiment
// sweeps) across OS threads.
//
// Determinism contract: every primitive splits its index space into
// fixed chunks whose boundaries depend only on (n, grain) — never on
// the worker count — and MapReduce folds chunk results strictly in
// ascending chunk order. A floating-point reduction therefore produces
// bit-identical results at every worker count, including 1; the serial
// path executes the exact same chunking and fold order as the parallel
// path. For/ForChunks make no ordering promise between chunks, so
// their bodies must write disjoint outputs (e.g. distinct output
// channels) whose values do not depend on execution order.
//
// The pool is bounded globally: nested calls (a parallel trainer batch
// whose replicas run parallel conv layers) do not multiply goroutines.
// Once the process-wide helper budget is in use, inner calls run
// inline on their caller's goroutine — same results, no oversubscription.
//
// These are host worker threads, not the simulated CMP cores of the
// paper: cmp.Config.Cores still selects the modelled accelerator count,
// while L2S_WORKERS only changes how fast the host computes the very
// same numbers.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// EnvWorkers is the environment variable overriding the default host
// worker count for every call that does not pass WithWorkers.
const EnvWorkers = "L2S_WORKERS"

// Workers returns the default worker count: L2S_WORKERS if set to a
// positive integer, else GOMAXPROCS. Read at call time so tests can
// flip the environment between runs.
func Workers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Option configures a single parallel call. It is a plain value, so
// passing one allocates nothing.
type Option struct {
	workers int
}

// WithWorkers overrides the worker count for one call. n <= 0 keeps
// the default (Workers()). The result of a MapReduce is bit-identical
// for every n; only wall-clock time changes.
func WithWorkers(n int) Option { return Option{workers: n} }

// resolve returns the worker count of a call: the last positive
// WithWorkers among opts, else Workers().
func resolve(opts []Option) int {
	w := 0
	for _, o := range opts {
		if o.workers > 0 {
			w = o.workers
		}
	}
	if w > 0 {
		return w
	}
	return Workers()
}

// inflight counts helper goroutines across all concurrent calls in the
// process. Spawning is budgeted against it so nested parallelism keeps
// the total helper count bounded instead of multiplying.
var inflight int64

func tryAcquire(budget int64) bool {
	for {
		cur := atomic.LoadInt64(&inflight)
		if cur >= budget {
			return false
		}
		if atomic.CompareAndSwapInt64(&inflight, cur, cur+1) {
			return true
		}
	}
}

func release() { atomic.AddInt64(&inflight, -1) }

// helperBudget is the process-wide cap on live helpers for a call that
// wants w workers: the larger of the ambient default and the explicit
// request, so an explicit WithWorkers(n) is honored even when n exceeds
// GOMAXPROCS.
func helperBudget(w int) int64 {
	d := Workers()
	if w > d {
		d = w
	}
	return int64(d)
}

// chunkBounds returns the half-open bounds of chunk k for the fixed
// chunking of n elements at the given grain.
func chunkBounds(k, grain, n int) (lo, hi int) {
	lo = k * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For runs body(i) for every i in [0, n), distributing iterations
// across workers. Bodies must be independent: they may not write
// shared state except to disjoint, index-owned locations.
func For(n int, body func(i int), opts ...Option) {
	ForChunks(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	}, opts...)
}

// ForChunks runs body(lo, hi) over the fixed chunking of [0, n) at the
// given grain (grain <= 0 means 1). Chunks run concurrently in
// unspecified order; bodies must write disjoint outputs. With one
// worker the chunks run inline, ascending. A call that starts helpers
// allocates nothing in steady state: its shared state is a pooled
// chunkJob, handed to each helper over helperQ.
func ForChunks(n, grain int, body func(lo, hi int), opts ...Option) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	p := pm.Load()
	if p != nil {
		p.recordCall(n, chunks)
	}
	w := resolve(opts)
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		st := p.startSlot(0)
		for k := 0; k < chunks; k++ {
			lo, hi := chunkBounds(k, grain, n)
			body(lo, hi)
			st.chunkDone()
		}
		st.stop()
		return
	}
	j := jobPool.Get().(*chunkJob)
	j.body, j.p, j.n, j.grain, j.chunks = body, p, n, grain, chunks
	j.next.Store(0)
	budget := helperBudget(w)
	for i := 1; i < w && tryAcquire(budget); i++ {
		j.wg.Add(1)
		helperQ <- helperTask{j: j, slot: i}
		go helper()
	}
	j.run(0) // the caller always participates, so progress never depends on the budget
	j.wg.Wait()
	j.body, j.p = nil, nil
	jobPool.Put(j)
}

// chunkJob is the state one ForChunks call shares with its helpers.
type chunkJob struct {
	next             atomic.Int64
	wg               sync.WaitGroup
	body             func(lo, hi int)
	p                *poolMetrics
	n, grain, chunks int
}

var jobPool = sync.Pool{New: func() any { return new(chunkJob) }}

// run claims and runs chunks until none is left.
func (j *chunkJob) run(slot int) {
	st := j.p.startSlot(slot)
	for {
		k := int(j.next.Add(1)) - 1
		if k >= j.chunks {
			break
		}
		lo, hi := chunkBounds(k, j.grain, j.n)
		j.body(lo, hi)
		st.chunkDone()
	}
	st.stop()
}

// helperTask is one helper's share of a ForChunks call.
type helperTask struct {
	j    *chunkJob
	slot int
}

// helperQ hands tasks to helper goroutines. Passing the task over a
// channel, rather than as an argument of the go statement, keeps the
// goroutine's start from allocating a closure. Every send is followed
// by starting one helper, which takes one task (any call's), so every
// queued task has a helper on its way. The buffer lets a call hand out
// its tasks without waiting for each helper to be scheduled; 64 covers
// the helpers of any worker count this repository runs, and a fuller
// queue only makes the sender wait for a started helper to take one.
var helperQ = make(chan helperTask, 64)

func helper() {
	t := <-helperQ
	defer t.j.wg.Done()
	defer release()
	t.j.run(t.slot)
}

// MapReduce maps the fixed chunking of [0, n) at the given grain
// through mapf and folds the chunk results strictly in ascending chunk
// order: acc = fold(...fold(fold(zero, m0), m1)..., mLast). Chunk
// boundaries and fold order are independent of the worker count, so
// floating-point results are bit-identical at every worker count.
//
// mapf runs concurrently with other mapf calls and with fold; fold
// runs on the calling goroutine only. Mappers run at most a small
// fixed window ahead of the fold frontier, which bounds how many
// un-folded chunk results (and any resources they hold, such as
// trainer replicas) exist at once to workers+2.
func MapReduce[T, A any](n, grain int, zero A, mapf func(lo, hi int) T, fold func(acc A, v T) A, opts ...Option) A {
	acc := zero
	if n <= 0 {
		return acc
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	p := pm.Load()
	if p != nil {
		p.recordCall(n, chunks)
	}
	w := resolve(opts)
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		st := p.startSlot(0)
		for k := 0; k < chunks; k++ {
			lo, hi := chunkBounds(k, grain, n)
			acc = fold(acc, mapf(lo, hi))
			st.chunkDone()
		}
		st.stop()
		return acc
	}

	budget := helperBudget(w)
	helpers := 0
	for i := 0; i < w && tryAcquire(budget); i++ {
		helpers++
	}
	if helpers == 0 {
		st := p.startSlot(0)
		for k := 0; k < chunks; k++ {
			lo, hi := chunkBounds(k, grain, n)
			acc = fold(acc, mapf(lo, hi))
			st.chunkDone()
		}
		st.stop()
		return acc
	}

	// window caps claimed-but-unfolded chunks. Each claim takes a
	// token; each fold (and each worker exit) returns one. Bounding
	// run-ahead keeps resource pools in mapf deadlock-free: at most
	// `window` chunks can hold a pooled resource at once.
	window := w + 2
	type keyed struct {
		k int
		v T
	}
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	results := make(chan keyed, window)
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer release()
			st := p.startSlot(slot)
			for {
				<-tokens
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= chunks {
					tokens <- struct{}{} // hand the token on so blocked peers can exit
					break
				}
				lo, hi := chunkBounds(k, grain, n)
				results <- keyed{k: k, v: mapf(lo, hi)}
				st.chunkDone()
			}
			st.stop()
		}(i + 1) // slot 0 is the folding caller
	}

	pending := make(map[int]T, window)
	want := 0
	for want < chunks {
		r := <-results
		pending[r.k] = r.v
		for {
			v, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if p != nil {
				t0 := time.Now()
				acc = fold(acc, v)
				p.fold.Add(time.Since(t0).Nanoseconds())
			} else {
				acc = fold(acc, v)
			}
			want++
			tokens <- struct{}{}
		}
	}
	wg.Wait() // workers drain via the token cascade; don't return budget slots while they linger
	return acc
}
