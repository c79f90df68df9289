package live

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"learn2scale/internal/obs"
)

func TestDeterministicWindows(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{Out: &buf})
	r := obs.New()
	r.SetTap(p)

	// Window 0: counter deltas, gauge sets, histogram observations.
	r.Counter("c.x", obs.Stable).Add(10)
	r.Counter("c.x", obs.Stable).Add(5)
	r.Gauge("g.y", obs.Stable).Set(2.5)
	r.Gauge("g.y", obs.Stable).Set(1.5)
	h := r.Histogram("h.z", obs.Stable, []int64{100})
	h.Observe(3)
	h.Observe(700)
	r.Counter("vol", obs.Volatile).Add(99) // must be excluded
	r.Boundary("epoch", 1)

	// Window 1: only the counter moves.
	r.Counter("c.x", obs.Stable).Add(30)
	r.Boundary("epoch", 2)

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("stream invalid: %v\n%s", err, buf.String())
	}
	// Close always appends a catch-all "final" window; here it is empty.
	if len(snaps) != 3 {
		t.Fatalf("windows = %d, want 3\n%s", len(snaps), buf.String())
	}

	w0 := snaps[0]
	if w0.Label != "epoch" || w0.Span != 1 {
		t.Errorf("window 0 label/span = %s/%v", w0.Label, w0.Span)
	}
	if len(w0.Counters) != 1 || w0.Counters[0].Name != "c.x" ||
		w0.Counters[0].Delta != 15 || w0.Counters[0].Total != 15 || w0.Counters[0].Rate != 15 {
		t.Errorf("window 0 counters = %+v", w0.Counters)
	}
	if len(w0.Gauges) != 1 || w0.Gauges[0].Last != 1.5 || w0.Gauges[0].High != 2.5 || w0.Gauges[0].Sets != 2 {
		t.Errorf("window 0 gauges = %+v", w0.Gauges)
	}
	if len(w0.Hists) != 1 {
		t.Fatalf("window 0 hists = %+v", w0.Hists)
	}
	hw := w0.Hists[0]
	if hw.Count != 2 || hw.Sum != 703 || hw.Min != 3 || hw.Max != 700 {
		t.Errorf("window 0 hist digest = %+v", hw)
	}
	// 3 → bucket idx 2 ([2,4)); 700 → idx 10 ([512,1024)).
	if want := []Bucket{{Idx: 2, N: 1}, {Idx: 10, N: 1}}; !reflect.DeepEqual(hw.Buckets, want) {
		t.Errorf("window 0 buckets = %+v, want %+v", hw.Buckets, want)
	}
	if strings.Contains(buf.String(), "vol") {
		t.Error("volatile metric leaked into deterministic stream")
	}

	w1 := snaps[1]
	if len(w1.Counters) != 1 || w1.Counters[0].Delta != 30 || w1.Counters[0].Total != 45 ||
		w1.Counters[0].Rate != 15 { // 30 over span 2
		t.Errorf("window 1 counters = %+v", w1.Counters)
	}
	if len(w1.Gauges) != 0 || len(w1.Hists) != 0 {
		t.Errorf("untouched metrics leaked into window 1: %+v", w1)
	}
	if snaps[2].Label != "final" {
		t.Errorf("last window label = %s, want final", snaps[2].Label)
	}
}

// TestStreamOrderIndependence feeds the same updates in two different
// interleavings (simulating different host worker schedules) and
// requires byte-identical streams — the core of the live determinism
// contract: all window aggregates are order-independent.
func TestStreamOrderIndependence(t *testing.T) {
	run := func(seed int64) []byte {
		var buf bytes.Buffer
		p := New(Config{Out: &buf})
		r := obs.New()
		r.SetTap(p)
		rng := rand.New(rand.NewSource(seed))

		// The same multiset of updates, shuffled per seed and applied
		// from concurrent goroutines.
		type upd struct{ kind, v int64 }
		var updates []upd
		for i := int64(0); i < 300; i++ {
			updates = append(updates, upd{kind: i % 3, v: i})
		}
		rng.Shuffle(len(updates), func(i, j int) { updates[i], updates[j] = updates[j], updates[i] })

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(updates); i += 4 {
					u := updates[i]
					switch u.kind {
					case 0:
						r.Counter("c", obs.Stable).Add(u.v)
					case 1:
						r.Gauge("g", obs.Stable).SetMax(float64(u.v))
					case 2:
						r.Histogram("h", obs.Stable, []int64{64}).Observe(u.v)
					}
				}
			}(w)
		}
		wg.Wait()
		r.Boundary("run", 10)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	a, b := run(1), run(99)
	if !bytes.Equal(a, b) {
		t.Errorf("streams differ across interleavings:\n%s\nvs\n%s", a, b)
	}
}

func TestClockModeIncludesVolatile(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{Clock: time.Hour, Out: &buf}) // ticker never fires in-test
	r := obs.New()
	r.SetTap(p)
	p.Start()

	r.Counter("vol", obs.Volatile).Add(7)
	r.Counter("st", obs.Stable).Add(1)
	r.Boundary("epoch", 1) // clock mode ignores boundaries
	if p.Last() != nil {
		t.Error("boundary closed a window in clock mode")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Last()
	if s == nil || len(s.Counters) != 2 {
		t.Fatalf("final clock window = %+v", s)
	}
	if s.Span != 3600 {
		t.Errorf("clock window span = %v, want 3600 (seconds)", s.Span)
	}
}

func TestHealthRules(t *testing.T) {
	rules, err := ParseRules("noc.lost.rate > 0.01; g.high >= 5")
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Rules: rules})
	r := obs.New()
	r.SetTap(p)

	// Window 0: clean.
	r.Counter("noc.lost", obs.Stable).Add(0)
	r.Gauge("g", obs.Stable).Set(1)
	r.Boundary("w", 100)
	if v := p.Violations(); len(v) != 0 {
		t.Fatalf("clean window violated: %+v", v)
	}

	// Window 1: lost rate 5/100 = 0.05 > 0.01, gauge high 7 >= 5.
	r.Counter("noc.lost", obs.Stable).Add(5)
	r.Gauge("g", obs.Stable).Set(7)
	r.Boundary("w", 100)
	v := p.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %+v, want 2", v)
	}
	if v[0].Window != 1 || v[0].Value != 0.05 {
		t.Errorf("violation 0 = %+v", v[0])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesWithinBounds(t *testing.T) {
	p := New(Config{})
	r := obs.New()
	r.SetTap(p)
	h := r.Histogram("lat", obs.Stable, []int64{1 << 20})
	rng := rand.New(rand.NewSource(7))
	var max, min int64 = 0, math.MaxInt64
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(100000))
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
		h.Observe(v)
	}
	r.Boundary("w", 1)
	s := p.Last()
	if s == nil || len(s.Hists) != 1 {
		t.Fatal("no histogram window")
	}
	hw := s.Hists[0]
	for _, q := range []float64{hw.P50, hw.P90, hw.P99} {
		if q < float64(min) || q > float64(max) {
			t.Errorf("quantile %v outside observed [%d, %d]", q, min, max)
		}
	}
	if !(hw.P50 <= hw.P90 && hw.P90 <= hw.P99) {
		t.Errorf("quantiles unordered: %v %v %v", hw.P50, hw.P90, hw.P99)
	}
}

func TestReadStreamRejectsViolations(t *testing.T) {
	cases := map[string]string{
		"non-monotone window":   `{"w":1,"label":"x","span":1}`,
		"zero span":             `{"w":0,"label":"x","span":0}`,
		"negative delta":        `{"w":0,"label":"x","span":1,"counters":[{"name":"c","delta":-1,"total":0,"rate":0}]}`,
		"total mismatch":        `{"w":0,"label":"x","span":1,"counters":[{"name":"c","delta":2,"total":5,"rate":2}]}`,
		"bucket sum mismatch":   `{"w":0,"label":"x","span":1,"hists":[{"name":"h","count":3,"sum":1,"min":1,"max":1,"buckets":[[1,1]],"p50":1,"p90":1,"p99":1}]}`,
		"quantile out of range": `{"w":0,"label":"x","span":1,"hists":[{"name":"h","count":1,"sum":4,"min":4,"max":4,"buckets":[{"i":3,"n":1}],"p50":99,"p90":99,"p99":99}]}`,
	}
	for name, line := range cases {
		if _, err := ReadStream(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNilPlaneAndSession(t *testing.T) {
	var p *Plane
	if p.Last() != nil || p.Violations() != nil {
		t.Error("nil plane not inert")
	}
	p.Start()
	if err := p.Close(); err != nil {
		t.Error(err)
	}
	var run Run
	if run.Metrics() != nil {
		t.Error("a run without a registry serves metrics")
	}
	if err := run.Finish("t", nil, nil); err != nil {
		t.Error(err)
	}
}
