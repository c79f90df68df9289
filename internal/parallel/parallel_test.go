package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	for _, workers := range []string{"1", "2", "3", "8"} {
		t.Setenv(EnvWorkers, workers)
		const n = 1000
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%s: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForChunksBoundaries(t *testing.T) {
	// Chunk boundaries must be a pure function of (n, grain).
	for _, workers := range []string{"1", "4"} {
		t.Setenv(EnvWorkers, workers)
		var mu sync.Mutex
		var got [][2]int
		ForChunks(10, 4, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		if len(got) != 3 {
			t.Fatalf("workers=%s: %d chunks, want 3", workers, len(got))
		}
		seen := map[[2]int]bool{}
		for _, c := range got {
			seen[c] = true
		}
		for _, want := range [][2]int{{0, 4}, {4, 8}, {8, 10}} {
			if !seen[want] {
				t.Fatalf("workers=%s: missing chunk %v (got %v)", workers, want, got)
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
	t.Setenv(EnvWorkers, "4")
	var total int64
	ForChunks(8, 1, func(lo, hi int) {
		track()
		ForChunks(100, 7, func(l, h int) {
			track()
			atomic.AddInt64(&total, int64(h-l))
		})
	})
	if total != 800 {
		t.Fatalf("nested total = %d, want 800", total)
	}
	if p := atomic.LoadInt64(&peak); p > 8 {
		t.Fatalf("helper peak %d exceeds nested budget", p)
	}
}

// TestForChunksZeroAlloc: a ForChunks call that starts helpers
// allocates nothing in steady state, at two and at three workers from
// L2S_WORKERS, which is read on every call.
func TestForChunksZeroAlloc(t *testing.T) {
	out := make([]int64, 64)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	call := func() { ForChunks(len(out), 4, body) }
	for _, w := range []string{"2", "3"} {
		t.Setenv(EnvWorkers, w)
		call()
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("ForChunks under %s=%s allocates %.1f objects per call, want 0", EnvWorkers, w, n)
		}
	}
	for i, v := range out {
		if v != 204 {
			t.Fatalf("element %d visited %d times, want 204", i, v)
		}
	}
}

// TestHelpersExitWhenIdle drives the helper hand-off from several
// callers at once, some calling back to back and some pausing past
// spinFor so that helpers exit between calls: every call covers each
// index once, and once the calls stop every helper exits.
func TestHelpersExitWhenIdle(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]int, 50)
			body := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i]++
				}
			}
			const calls = 200
			for i := 0; i < calls; i++ {
				ForChunks(len(out), 3, body)
				if i%(c+2) == 0 {
					time.Sleep(2 * spinFor)
				}
			}
			for i, v := range out {
				if v != calls {
					t.Errorf("caller %d: element %d visited %d times, want %d", c, i, v, calls)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the calls stopped, want at most %d", runtime.NumGoroutine(), before)
		}
	}
	if n := idle.Load(); n != 0 {
		t.Fatalf("%d helpers counted idle after every helper exited", n)
	}
}
