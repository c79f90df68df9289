// Package parallel is the host-side execution runtime: a bounded
// worker pool that spreads the repository's compute hot paths (im2col
// GEMMs, the K rows of a trainer batch, group-Lasso penalties, NoC
// layer simulation, experiment sweeps) across OS threads.
//
// Determinism contract: every primitive splits its index space into
// fixed chunks whose boundaries depend only on (n, grain) — never on
// the worker count. For/ForChunks make no ordering promise between
// chunks, so their bodies must write disjoint outputs (e.g. distinct
// output channels) whose values do not depend on execution order. A
// reduction writes one partial per chunk and sums the partials in
// ascending order after the call, so its floating-point result is
// bit-identical at every worker count, including 1.
//
// The pool is bounded globally: nested calls (an experiment sweep
// whose runs train parallel conv layers) do not multiply goroutines.
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

// EnvWorkers is the environment variable overriding the host worker
// count of every call.
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
func For(n int, body func(i int)) {
	ForChunks(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunks runs body(lo, hi) over the fixed chunking of [0, n) at the
// given grain (grain <= 0 means 1). Chunks run concurrently in
// unspecified order; bodies must write disjoint outputs. With one
// worker the chunks run inline, ascending. A call that starts helpers
// allocates nothing in steady state: its shared state is a pooled
// chunkJob, handed to each helper over a queue. A helper that finishes
// polls for the next call's task for spinFor before it exits, and a
// caller that runs out of chunks polls for its helpers to finish for as
// long before it parks, so calls made back to back (a layer's steps, a
// batch's layers) neither start nor wake a thread.
func ForChunks(n, grain int, body func(lo, hi int)) {
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
	budget := Workers()
	w := min(budget, chunks)
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
	for i := 1; i < w && tryAcquire(int64(budget)); i++ {
		j.wg.Add(1)
		j.busy.Add(1)
		if claimIdle() {
			idleQ <- helperTask{j: j, slot: i}
		} else {
			newQ <- helperTask{j: j, slot: i}
			go helper()
		}
	}
	j.run(0) // the caller always participates, so progress never depends on the budget
	// Poll for the helpers' last chunks before parking in Wait, so that
	// a helper finishing within spinFor does not have to wake the caller.
	for start := time.Now(); j.busy.Load() > 0 && time.Since(start) < spinFor; {
		runtime.Gosched()
	}
	j.wg.Wait()
	j.body, j.p = nil, nil
	jobPool.Put(j)
}

// chunkJob is the state one ForChunks call shares with its helpers.
type chunkJob struct {
	next             atomic.Int64
	busy             atomic.Int64 // helpers yet to finish
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

// newQ and idleQ hand tasks to helper goroutines. Passing a task over
// a channel, rather than as an argument of the go statement, keeps the
// goroutine's start from allocating a closure. Every send to newQ is
// followed by starting one helper, which takes one task from it; every
// send to idleQ follows a claim on one waiting helper (claimIdle), so
// every queued task has a helper that takes it. The buffers let a call
// hand out its tasks without waiting for each helper to be scheduled;
// 64 covers the helpers of any worker count this repository runs, and
// a fuller queue only makes the sender wait for a helper to take one.
var (
	newQ  = make(chan helperTask, 64)
	idleQ = make(chan helperTask, 64)
)

// idle counts the helpers waiting on idleQ that no call has claimed.
// Waiting helpers always number idle plus the claimed tasks no helper
// has taken yet, so a helper may exit only by taking one off idle; when
// it finds idle at zero, a task is on its way to it.
var idle atomic.Int64

// spinFor is how long a helper that has finished a task polls idleQ
// before it exits, and how long a caller polls for its helpers before
// it parks: long enough to span the serial work between the parallel
// calls of a training step, short enough that an idle process stops
// spinning at once.
const spinFor = 50 * time.Microsecond

// claimIdle takes one waiting helper for a task about to be queued on
// idleQ, if there is one.
func claimIdle() bool {
	for {
		n := idle.Load()
		if n == 0 {
			return false
		}
		if idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func helper() {
	t := <-newQ
	for {
		t.j.run(t.slot)
		// Wait as idle before the call can return, so that the
		// caller's next call finds this helper.
		idle.Add(1)
		release()
		t.j.busy.Add(-1)
		t.j.wg.Done()
		var ok bool
		if t, ok = wait(); !ok {
			return
		}
	}
}

// wait waits for an idle helper's next task: it polls idleQ for
// spinFor, yielding its thread between polls, then exits unless a call
// has claimed it, in which case the claimed task is on its way.
func wait() (helperTask, bool) {
	start := time.Now()
	for time.Since(start) < spinFor {
		select {
		case t := <-idleQ:
			return t, true
		default:
			runtime.Gosched()
		}
	}
	for {
		n := idle.Load()
		if n == 0 {
			return <-idleQ, true
		}
		if idle.CompareAndSwap(n, n-1) {
			return helperTask{}, false
		}
	}
}
