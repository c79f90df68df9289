package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressConcurrentMixedModels hammers the dispatcher with
// concurrent requests across every model and precision and asserts the
// exactly-once contract: each Submit returns exactly one response (or
// one sanctioned admission error), counters balance, and nothing
// deadlocks. This is the test `go test -race ./internal/serve/...`
// exists for.
func TestStressConcurrentMixedModels(t *testing.T) {
	s := testServer(t, Config{
		QueueCap: 256,
		Window:   500 * time.Microsecond,
		MaxBatch: 8,
		Depth:    3,
	})
	defer s.Close()
	keys := s.Keys()

	clients := 16
	perClient := 8
	if testing.Short() {
		clients, perClient = 8, 4
	}

	var ok, rejected, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := keys[(c+i)%len(keys)]
				m := s.Model(key)
				in := m.Samples[(c*perClient+i)%len(m.Samples)]
				resp, err := s.Submit(context.Background(), key, in)
				switch {
				case err == nil:
					if resp == nil || len(resp.Logits) == 0 || resp.BatchSize < 1 {
						t.Errorf("%s: malformed response %+v", key, resp)
					}
					if resp.Model != ModelName(key.Scheme) || resp.Precision != key.Precision.String() {
						t.Errorf("%s: cross-wired response %s/%s", key, resp.Model, resp.Precision)
					}
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					rejected.Add(1)
				default:
					failed.Add(1)
					t.Errorf("%s: %v", key, err)
				}
			}
		}(c)
	}
	wg.Wait()

	total := int64(clients * perClient)
	if got := ok.Load() + rejected.Load() + failed.Load(); got != total {
		t.Fatalf("%d requests, %d outcomes", total, got)
	}
	if ok.Load() == 0 {
		t.Fatal("every request was rejected; queue sizing is wrong for this test")
	}
	// Every admitted request got exactly one answer.
	st := s.Stats()
	if st.Admitted != ok.Load() {
		t.Fatalf("admitted %d, answered-ok %d", st.Admitted, ok.Load())
	}
	if st.Responded != st.Admitted {
		t.Fatalf("responded %d != admitted %d", st.Responded, st.Admitted)
	}
	if st.Rejected != rejected.Load() {
		t.Fatalf("stats.Rejected %d, clients saw %d", st.Rejected, rejected.Load())
	}
	t.Logf("stress: %d ok, %d rejected, %d batches, max batch %d",
		ok.Load(), rejected.Load(), st.Batches, st.BatchMax)
}

// TestStressSubmitDuringClose races Close against a stream of Submits:
// every request must be answered or rejected with ErrDraining — never
// lost, never panicking on a closed channel.
func TestStressSubmitDuringClose(t *testing.T) {
	s := testServer(t, Config{QueueCap: 64, Window: 200 * time.Microsecond, MaxBatch: 4, Depth: 2})
	key := s.Keys()[0]
	in := s.Model(key).Samples[0]

	const n = 32
	var answered, draining atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), key, in)
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
				draining.Add(1)
			default:
				t.Errorf("submit during close: %v", err)
			}
		}()
	}
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()
	if answered.Load()+draining.Load() != n {
		t.Fatalf("%d of %d requests unaccounted", n-answered.Load()-draining.Load(), n)
	}
	st := s.Stats()
	if st.Responded != st.Admitted {
		t.Fatalf("after drain: responded %d != admitted %d", st.Responded, st.Admitted)
	}
}

// TestStressAbandonedWaiters: requesters that give up (canceled
// context) must not wedge the dispatcher — its send into the buffered
// response channel never blocks, and accounting still converges.
func TestStressAbandonedWaiters(t *testing.T) {
	s := testServer(t, Config{QueueCap: 64, Window: 5 * time.Millisecond, MaxBatch: 8, Depth: 2})
	key := s.Keys()[0]
	in := s.Model(key).Samples[0]

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				cancel() // abandon half the requests up front
			} else {
				defer cancel()
			}
			_, err := s.Submit(ctx, key, in)
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrOverloaded) {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// The dispatcher must still answer (or expire) every admitted
	// request, and remain serviceable afterwards.
	waitStats(t, s, func(st Stats) bool { return st.Responded == st.Admitted })
	if _, err := s.Submit(context.Background(), key, in); err != nil {
		t.Fatalf("server wedged after abandoned waiters: %v", err)
	}
}
