package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"learn2scale/internal/benchpair"
)

// recordingTap captures every tap callback for assertions.
type recordingTap struct {
	counters   []string
	gauges     []string
	hists      []string
	boundaries []string
}

func (t *recordingTap) TapCounter(name string, class Class, delta int64) {
	t.counters = append(t.counters, fmt.Sprintf("%s/%d/%d", name, class, delta))
}
func (t *recordingTap) TapGauge(name string, class Class, v float64, isMax bool) {
	t.gauges = append(t.gauges, fmt.Sprintf("%s/%v/%v", name, v, isMax))
}
func (t *recordingTap) TapHistogram(name string, class Class, v int64) {
	t.hists = append(t.hists, fmt.Sprintf("%s/%d", name, v))
}
func (t *recordingTap) TapBoundary(label string, span float64) {
	t.boundaries = append(t.boundaries, fmt.Sprintf("%s/%v", label, span))
}

func TestTapSeesUpdates(t *testing.T) {
	r := New()
	// Metrics created before the attach must report too: the tap
	// pointer is shared, not copied at metric creation.
	early := r.Counter("early", Stable)
	tap := &recordingTap{}
	r.SetTap(tap)

	early.Add(2)
	r.Counter("late", Volatile).Add(3)
	g := r.Gauge("g", Stable)
	g.Set(1.5)
	g.SetMax(9) // raise: isMax=true
	g.SetMax(4) // no raise: no callback
	r.Histogram("h", Stable, []int64{8}).Observe(5)
	r.Boundary("epoch", 1)

	if want := []string{"early/0/2", "late/1/3"}; strings.Join(tap.counters, ",") != strings.Join(want, ",") {
		t.Errorf("counters = %v, want %v", tap.counters, want)
	}
	if want := []string{"g/1.5/false", "g/9/true"}; strings.Join(tap.gauges, ",") != strings.Join(want, ",") {
		t.Errorf("gauges = %v, want %v", tap.gauges, want)
	}
	if want := []string{"h/5"}; strings.Join(tap.hists, ",") != strings.Join(want, ",") {
		t.Errorf("hists = %v, want %v", tap.hists, want)
	}
	if want := []string{"epoch/1"}; strings.Join(tap.boundaries, ",") != strings.Join(want, ",") {
		t.Errorf("boundaries = %v, want %v", tap.boundaries, want)
	}

	// Detach: updates stop flowing.
	r.SetTap(nil)
	early.Add(1)
	r.Boundary("epoch", 1)
	if len(tap.counters) != 2 || len(tap.boundaries) != 1 {
		t.Error("detached tap still receives updates")
	}
}

// TestNilTapZeroCost is the live-plane companion of the nil-sink
// guard: an ENABLED registry with NO tap attached must keep its
// update paths allocation-free — the tap hook is one atomic load and
// a nil check, nothing more. (The nil-registry path is covered by
// TestDisabledSinkNearZeroCost and never even reaches the tap field.)
func TestNilTapZeroCost(t *testing.T) {
	r := New()
	c := r.Counter("hot", Stable)
	g := r.Gauge("hot.g", Stable)
	h := r.Histogram("hot.h", Stable, []int64{8, 64})

	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1)
		h.Observe(1)
		r.Boundary("b", 1)
	}); allocs != 0 {
		t.Fatalf("tapless enabled registry allocates %.1f objects/op, want 0", allocs)
	}

	if raceEnabled {
		// Race instrumentation multiplies the cost of the atomic ops
		// this bound measures; the alloc check above still ran.
		return
	}
	const iters = 1_000_000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		c.Add(1)
		h.Observe(int64(i))
	}
	perOp := time.Since(t0) / iters
	if perOp > 500*time.Nanosecond {
		t.Errorf("tapless enabled registry costs %v per op (<=500ns expected)", perOp)
	}
}

func TestNilRegistryBoundaryAndSetTap(t *testing.T) {
	var r *Registry
	r.SetTap(&recordingTap{}) // must not panic
	r.Boundary("epoch", 1)    // must not panic
}

// countingTap is the cheapest possible tap: the benchmarks below
// measure the registry-side dispatch cost, not tap work.
type countingTap struct{ n int64 }

func (t *countingTap) TapCounter(string, Class, int64)       { t.n++ }
func (t *countingTap) TapGauge(string, Class, float64, bool) { t.n++ }
func (t *countingTap) TapHistogram(string, Class, int64)     { t.n++ }
func (t *countingTap) TapBoundary(string, float64)           { t.n++ }

// BenchmarkTapOverheadCounter / Histogram measure the per-update cost
// of the tap hook on an enabled registry, Off and On blocks alternating
// in one loop: Off has no tap attached (one atomic load + nil check),
// On adds the interface dispatch into a trivial tap. benchjson's
// predicates hold on-ns/op ≤ off-ns/op·1.02 + 1 ns for both.
func BenchmarkTapOverheadCounter(b *testing.B) {
	r := New()
	c := r.Counter("bench", Stable)
	tap := &countingTap{}
	benchpair.OffOn(b, func(n int) {
		r.SetTap(nil)
		for i := 0; i < n; i++ {
			c.Add(1)
		}
	}, func(n int) {
		r.SetTap(tap)
		for i := 0; i < n; i++ {
			c.Add(1)
		}
	})
}

func BenchmarkTapOverheadHistogram(b *testing.B) {
	r := New()
	h := r.Histogram("bench", Stable, []int64{4, 16, 64, 256})
	tap := &countingTap{}
	benchpair.OffOn(b, func(n int) {
		r.SetTap(nil)
		for i := 0; i < n; i++ {
			h.Observe(int64(i & 1023))
		}
	}, func(n int) {
		r.SetTap(tap)
		for i := 0; i < n; i++ {
			h.Observe(int64(i & 1023))
		}
	})
}
