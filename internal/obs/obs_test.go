package obs

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("a.count", Stable)
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if r.Counter("a.count", Volatile) != c {
		t.Error("counter not deduplicated by name")
	}

	g := r.Gauge("a.gauge", Stable)
	g.Set(2.5)
	g.SetMax(1.0)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge after lower SetMax = %v, want 2.5", got)
	}
	g.SetMax(9.0)
	if got := g.Value(); got != 9.0 {
		t.Errorf("gauge = %v, want 9", got)
	}

	h := r.Histogram("a.hist", Stable, []int64{10, 20, 30})
	for _, v := range []int64{5, 10, 11, 25, 31, 1000} {
		h.Observe(v)
	}
	snap := r.SnapshotClass(Stable)
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []int64{2, 1, 1, 2} // le10, le20, le30, +inf
	if !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("buckets = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 6 || hs.Max != 1000 || hs.Sum != 5+10+11+25+31+1000 {
		t.Errorf("digest = count %d sum %d max %d", hs.Count, hs.Sum, hs.Max)
	}
}

func TestSpanAccumulation(t *testing.T) {
	r := New()
	sp := r.Span("train/epoch00")
	tm := sp.Start()
	time.Sleep(time.Millisecond)
	tm.Stop()
	sp.Start().Stop()
	v := r.SnapshotClass(Volatile)
	if len(v.Spans) != 1 || v.Spans[0].Count != 2 {
		t.Fatalf("span snapshot = %+v", v.Spans)
	}
	if v.Spans[0].TotalNS <= 0 {
		t.Error("span accumulated no time")
	}
	s := r.SnapshotClass(Stable)
	if s.Spans[0].TotalNS != 0 {
		t.Error("stable snapshot leaked span duration")
	}
}

// TestSnapshotDeterministicOrder registers metrics in adversarial
// order and checks every section comes back name-sorted — the
// property that keeps flight records byte-stable.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New()
	for _, n := range []string{"z", "a", "m", "b"} {
		r.Counter("c."+n, Stable).Add(1)
		r.Gauge("g."+n, Stable).Set(1)
		r.Histogram("h."+n, Stable, []int64{1}).Observe(0)
		r.Span("s/" + n).Start().Stop()
	}
	s := r.SnapshotClass(Stable)
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters unsorted: %v", s.Counters)
		}
	}
	for i := 1; i < len(s.Spans); i++ {
		if s.Spans[i-1].Path >= s.Spans[i].Path {
			t.Fatalf("spans unsorted: %v", s.Spans)
		}
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared", Stable).Add(1)
				r.Histogram("lat", Stable, []int64{4, 8}).Observe(int64(i % 10))
				tm := r.Span("hot").Start()
				tm.Stop()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared", Stable).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat", Stable, nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestNilRegistryIsInert exercises every operation on the nil sink.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x", Stable).Add(1)
	r.Gauge("x", Stable).Set(1)
	r.Gauge("x", Stable).SetMax(1)
	r.Histogram("x", Stable, []int64{1}).Observe(1)
	tm := r.Span("x").Start()
	tm.Stop()
	if !r.SnapshotClass(Stable).Empty() {
		t.Error("nil registry produced metrics")
	}
	rec := r.Record("tool", nil, true)
	if rec.Profile != nil || !rec.Snapshot.Empty() {
		t.Error("nil registry produced a non-empty record")
	}
}

// TestDisabledSinkNearZeroCost is the instrumentation overhead guard:
// the exact operations the conv forward hot path executes when
// observability is off (nil counter adds, nil span start/stop, nil
// histogram observes) must be allocation-free and cost no more than a
// few nanoseconds each. The time bound is two orders of magnitude
// above the real cost (~1–2ns) so it never flakes in CI while still
// catching an accidental clock read or allocation on the disabled
// path.
func TestDisabledSinkNearZeroCost(t *testing.T) {
	var r *Registry
	c := r.Counter("hot", Stable)
	h := r.Histogram("hot", Stable, []int64{1})
	sp := r.Span("hot")

	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(1)
		tm := sp.Start()
		tm.Stop()
	}); allocs != 0 {
		t.Fatalf("disabled sink allocates %.1f objects/op, want 0", allocs)
	}

	const iters = 1_000_000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		c.Add(1)
		tm := sp.Start()
		tm.Stop()
		h.Observe(int64(i))
	}
	perOp := time.Since(t0) / iters
	if perOp > 200*time.Nanosecond {
		t.Errorf("disabled sink costs %v per op, want ~0 (<=200ns)", perOp)
	}
}

func TestFlightRecordRoundTrip(t *testing.T) {
	r := New()
	r.Counter("sim.packets", Stable).Add(42)
	r.Counter("parallel.worker.00.busy_ns", Volatile).Add(12345)
	r.Gauge("train.epoch.00.loss", Stable).Set(1.25)
	r.Histogram("noc.packet_latency", Stable, []int64{16, 32, 64, 128}).Observe(40)
	r.Span("sim/runplan").Start().Stop()

	rec := r.Record("test", map[string]string{"net": "mlp"}, true)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", rec, back)
	}
	if len(back.Profile.Counters) != 1 || back.Profile.Counters[0].Name != "parallel.worker.00.busy_ns" {
		t.Errorf("volatile counter missing from profile: %+v", back.Profile)
	}
	for _, c := range back.Counters {
		if strings.Contains(c.Name, "worker") {
			t.Error("volatile counter leaked into stable section")
		}
	}

	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "histogram,noc.packet_latency,le=64,1") {
		t.Errorf("CSV missing histogram bucket row:\n%s", csv.String())
	}
	if !strings.Contains(csv.String(), "profile.counter,parallel.worker.00.busy_ns") {
		t.Errorf("CSV missing profile row:\n%s", csv.String())
	}
}

// TestRecordStableBytes checks the byte-level determinism contract:
// two registries fed the same stable workload in different
// registration orders (and different volatile noise) serialize to
// identical default records.
func TestRecordStableBytes(t *testing.T) {
	feed := func(reverse bool, noise int64) *Registry {
		r := New()
		names := []string{"a.one", "b.two", "c.three"}
		if reverse {
			for i := len(names) - 1; i >= 0; i-- {
				r.Counter(names[i], Stable).Add(int64(i + 1))
			}
		} else {
			for i, n := range names {
				r.Counter(n, Stable).Add(int64(i + 1))
			}
		}
		r.Counter("worker.busy", Volatile).Add(noise)
		r.Histogram("lat", Stable, []int64{8, 16}).Observe(9)
		return r
	}
	var a, b bytes.Buffer
	if err := feed(false, 111).Record("t", map[string]string{"k": "v"}, false).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed(true, 999).Record("t", map[string]string{"k": "v"}, false).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("default records differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestReadRecordRejectsCorrupt(t *testing.T) {
	bad := `{"version":1,"tool":"t","counters":[],"gauges":[],"histograms":[{"name":"h","bounds":[1,2],"counts":[1],"count":1,"sum":0,"max":0}],"spans":[]}`
	if _, err := ReadRecord(strings.NewReader(bad)); err == nil {
		t.Error("accepted histogram with bucket/bound mismatch")
	}
	if _, err := ReadRecord(strings.NewReader(`{"version":99,"tool":"t"}`)); err == nil {
		t.Error("accepted wrong version")
	}
	if _, err := ReadRecord(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("accepted record with no tool")
	}
}

func TestServeDebug(t *testing.T) {
	r := New()
	r.Counter("x", Stable).Add(1)
	addr, stop, err := ServeDebug("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/obs", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}
