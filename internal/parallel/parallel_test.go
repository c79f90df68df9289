package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	t.Setenv(EnvWorkers, "")
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d, want >= 1", w)
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "5")
	if w := Workers(); w != 5 {
		t.Fatalf("Workers() = %d with %s=5", w, EnvWorkers)
	}
	t.Setenv(EnvWorkers, "0") // invalid: fall back
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d with invalid env, want default", w)
	}
	t.Setenv(EnvWorkers, "junk")
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d with junk env, want default", w)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 1000
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) }, WithWorkers(workers))
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForChunksBoundaries(t *testing.T) {
	// Chunk boundaries must be a pure function of (n, grain).
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var got [][2]int
		ForChunks(10, 4, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		}, WithWorkers(workers))
		if len(got) != 3 {
			t.Fatalf("workers=%d: %d chunks, want 3", workers, len(got))
		}
		seen := map[[2]int]bool{}
		for _, c := range got {
			seen[c] = true
		}
		for _, want := range [][2]int{{0, 4}, {4, 8}, {8, 10}} {
			if !seen[want] {
				t.Fatalf("workers=%d: missing chunk %v (got %v)", workers, want, got)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	called := false
	For(0, func(int) { called = true })
	For(-3, func(int) { called = true })
	ForChunks(0, 8, func(_, _ int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

// sumSerialChunked is the reference reduction: fixed chunks folded in
// ascending order, exactly what MapReduce promises at any worker count.
func sumSerialChunked(vals []float32, grain int) float32 {
	var acc float32
	for lo := 0; lo < len(vals); lo += grain {
		hi := lo + grain
		if hi > len(vals) {
			hi = len(vals)
		}
		var s float32
		for _, v := range vals[lo:hi] {
			s += v
		}
		acc += s
	}
	return acc
}

func TestMapReduceBitIdenticalAcrossWorkers(t *testing.T) {
	// A float32 sum whose value depends on association order: mixing
	// tiny and huge magnitudes makes any reordering visible in the bits.
	vals := make([]float32, 10007)
	for i := range vals {
		x := float64(i%311) - 155.0
		vals[i] = float32(math.Ldexp(x, (i%40)-20))
	}
	const grain = 64
	want := sumSerialChunked(vals, grain)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		got := MapReduce(len(vals), grain, float32(0),
			func(lo, hi int) float32 {
				var s float32
				for _, v := range vals[lo:hi] {
					s += v
				}
				return s
			},
			func(acc, v float32) float32 { return acc + v },
			WithWorkers(workers))
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("workers=%d: sum %x, want %x (not bit-identical)", workers, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestMapReduceNonCommutativeFoldOrder(t *testing.T) {
	// String concatenation detects any fold-order deviation directly.
	letters := "abcdefghijklmnopqrstuvwxyz"
	want := letters
	for _, workers := range []int{1, 2, 5, 32} {
		got := MapReduce(len(letters), 3, "",
			func(lo, hi int) string { return letters[lo:hi] },
			func(acc, v string) string { return acc + v },
			WithWorkers(workers))
		if got != want {
			t.Fatalf("workers=%d: fold order broken: %q", workers, got)
		}
	}
}

func TestMapReduceEmpty(t *testing.T) {
	got := MapReduce(0, 8, 42, func(_, _ int) int { return 1 }, func(a, v int) int { return a + v })
	if got != 42 {
		t.Fatalf("empty MapReduce = %d, want zero value 42", got)
	}
}

func TestMapReduceEnvWorkers(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	n := 0
	got := MapReduce(100, 10, 0,
		func(lo, hi int) int { return hi - lo },
		func(a, v int) int { n++; return a + v })
	if got != 100 || n != 10 {
		t.Fatalf("got sum=%d folds=%d, want 100/10", got, n)
	}
}

func TestNestedCallsBounded(t *testing.T) {
	// Nested parallel calls must not explode the helper count and must
	// still produce correct results.
	var peak int64
	track := func() {
		cur := atomic.LoadInt64(&inflight)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				return
			}
		}
	}
	total := MapReduce(8, 1, int64(0),
		func(lo, hi int) int64 {
			track()
			return MapReduce(100, 7, int64(0),
				func(l, h int) int64 { track(); return int64(h - l) },
				func(a, v int64) int64 { return a + v },
				WithWorkers(4))
		},
		func(a, v int64) int64 { return a + v },
		WithWorkers(4))
	if total != 800 {
		t.Fatalf("nested total = %d, want 800", total)
	}
	if p := atomic.LoadInt64(&peak); p > 8 {
		t.Fatalf("helper peak %d exceeds nested budget", p)
	}
}

func TestMapReduceWindowBoundsRunahead(t *testing.T) {
	// A pool with exactly window resources must never deadlock: mappers
	// acquire, the fold releases. This is the trainer-replica pattern.
	const workers = 4
	pool := make(chan int, workers+2)
	for i := 0; i < cap(pool); i++ {
		pool <- i
	}
	type res struct{ id, sum int }
	total := MapReduce(500, 1, 0,
		func(lo, hi int) res { return res{id: <-pool, sum: hi - lo} }, // acquire
		func(acc int, v res) int { pool <- v.id; return acc + v.sum }, // release
		WithWorkers(workers))
	_ = total
	if total != 500 {
		t.Fatalf("pooled MapReduce = %d, want 500", total)
	}
}

// TestForChunksZeroAlloc: a ForChunks call that starts helpers
// allocates nothing in steady state, with the worker count from an
// option and from L2S_WORKERS, which is read on every call.
func TestForChunksZeroAlloc(t *testing.T) {
	out := make([]int64, 64)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	two := WithWorkers(2)
	call := func() { ForChunks(len(out), 4, body, two) }
	call()
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Errorf("ForChunks under WithWorkers(2) allocates %.1f objects per call, want 0", n)
	}
	t.Setenv(EnvWorkers, "3")
	env := func() { ForChunks(len(out), 4, body) }
	env()
	if n := testing.AllocsPerRun(100, env); n != 0 {
		t.Errorf("ForChunks under %s=3 allocates %.1f objects per call, want 0", EnvWorkers, n)
	}
	for i, v := range out {
		if v != 204 {
			t.Fatalf("element %d visited %d times, want 204", i, v)
		}
	}
}
