package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestRunLoadClosedLoop(t *testing.T) {
	s := testServer(t, Config{QueueCap: 64, Window: time.Millisecond, MaxBatch: 8, Depth: 2})
	rep := RunLoad(context.Background(), s, LoadConfig{Requests: 16, Clients: 4, Seed: 9})
	if got := rep.Responses + rep.Rejected + rep.Failed; got != rep.Requests {
		t.Fatalf("accounting: %d+%d+%d != %d requests", rep.Responses, rep.Rejected, rep.Failed, rep.Requests)
	}
	if rep.Failed > 0 {
		t.Fatalf("failed requests: %s", rep)
	}
	if rep.Responses == 0 || rep.QPS <= 0 {
		t.Fatalf("no throughput: %s", rep)
	}
	if rep.P50 > rep.P90 || rep.P90 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("quantiles out of order: %s", rep)
	}
	if str := rep.String(); !strings.Contains(str, "qps=") {
		t.Fatalf("report string %q", str)
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	s := testServer(t, Config{QueueCap: 64, Window: time.Millisecond, MaxBatch: 8, Depth: 2})
	rep := RunLoad(context.Background(), s, LoadConfig{
		Requests: 8, OpenLoop: true, TargetQPS: 2000, Seed: 3,
		Mix: []ModelKey{s.Keys()[0]},
	})
	if got := rep.Responses + rep.Rejected + rep.Failed; got != rep.Requests {
		t.Fatalf("accounting: %d+%d+%d != %d requests", rep.Responses, rep.Rejected, rep.Failed, rep.Requests)
	}
	if rep.Failed > 0 {
		t.Fatalf("failed requests: %s", rep)
	}
}

// TestRunLoadDefaults: zero-valued knobs fall back to the documented
// defaults instead of dividing by zero or issuing nothing.
func TestRunLoadDefaults(t *testing.T) {
	s := testServer(t, Config{QueueCap: 128, Depth: 1})
	rep := RunLoad(context.Background(), s, LoadConfig{Requests: 4})
	if rep.Requests != 4 || rep.Responses != 4 {
		t.Fatalf("defaults run: %s", rep)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile[time.Duration](nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.0, 1}, {1.0, 10}} {
		if got := quantile(lat, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSweepSmoke runs the smallest possible sweep grid over the shared
// fixture pool and checks the table renderer; the full grid, with its
// own trained pool, is `l2s-bench -exp serve`.
func TestSweepSmoke(t *testing.T) {
	opt := SweepOptions{
		Requests: 6,
		Clients:  2,
		Seed:     1,
		Windows:  []time.Duration{0},
		Depths:   []int{1},
	}
	var log bytes.Buffer
	rows, err := sweepGrid(opt, testModels(t), &log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1 (one grid cell)", len(rows))
	}
	r := rows[0].Report
	if r.Responses+r.Rejected+r.Failed != opt.Requests || r.Failed > 0 {
		t.Fatalf("sweep cell: %s", r)
	}
	if !strings.Contains(log.String(), "serve sweep") {
		t.Fatalf("sweep log %q", log.String())
	}
	var table bytes.Buffer
	WriteSweepTable(&table, rows)
	out := table.String()
	if !strings.Contains(out, "window") || !strings.Contains(out, "float32") {
		t.Fatalf("sweep table:\n%s", out)
	}
}

// The canned sweep grids must stay runnable: every axis non-empty.
func TestSweepOptionPresets(t *testing.T) {
	for name, opt := range map[string]SweepOptions{
		"quick":   QuickSweepOptions(),
		"default": DefaultSweepOptions(),
	} {
		if opt.Cores <= 0 || opt.Epochs <= 0 || opt.Requests <= 0 || opt.Clients <= 0 {
			t.Errorf("%s: zero fixture knob: %+v", name, opt)
		}
		if len(opt.Windows) == 0 || len(opt.Depths) == 0 {
			t.Errorf("%s: empty sweep axis: %+v", name, opt)
		}
		if len(sweepPrecisions(opt)) == 0 {
			t.Errorf("%s: no precisions", name)
		}
	}
}
