package live

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"learn2scale/internal/obs"
)

func TestMangle(t *testing.T) {
	cases := []struct {
		in, family string
		labels     string
	}{
		{"train.epoch.03.loss", "l2s_train_epoch_loss", `{epoch="03"}`},
		{"sim.layer.02.fc1.comm_cycles", "l2s_sim_layer_fc1_comm_cycles", `{layer="02"}`},
		{"noc.packets", "l2s_noc_packets", ""},
		{"parallel.worker.0.tasks", "l2s_parallel_worker_tasks", `{worker="0"}`},
		// Two digit segments after the same parent: second key deduped.
		{"grid.4.4", "l2s_grid", `{grid="4",grid_2="4"}`},
		{"weird-name.x", "l2s_weird_name_x", ""},
	}
	for _, c := range cases {
		m := mangle(c.in)
		if m.family != c.family || renderLabels(m.labels) != c.labels {
			t.Errorf("mangle(%q) = %s%s, want %s%s",
				c.in, m.family, renderLabels(m.labels), c.family, c.labels)
		}
	}
	// Determinism: repeated calls agree.
	for _, c := range cases {
		a, b := mangle(c.in), mangle(c.in)
		if a.family != b.family || renderLabels(a.labels) != renderLabels(b.labels) {
			t.Errorf("mangle(%q) unstable", c.in)
		}
	}
}

// populated builds a registry+plane carrying every metric shape the
// exposition has to render.
func populated(t *testing.T) (*obs.Registry, *Plane) {
	t.Helper()
	r := obs.New()
	p := New(Config{})
	r.SetTap(p)
	r.Counter("train.steps", obs.Stable).Add(42)
	r.Counter("noc.packets", obs.Volatile).Add(7)
	r.Gauge("train.epoch.00.loss", obs.Stable).Set(0.5)
	r.Gauge("train.epoch.01.loss", obs.Stable).Set(0.25)
	h := r.Histogram("noc.packet_latency_cycles", obs.Stable, []int64{4, 16, 64})
	h.Observe(3)
	h.Observe(20)
	h.Observe(999)
	r.Span("train/step").Start().Stop()
	r.Boundary("epoch", 1)
	return r, p
}

func TestWriteMetricsPassesLint(t *testing.T) {
	r, p := populated(t)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, r, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("own exposition fails lint: %v\n%s", errs, out)
	}
	for _, want := range []string{
		`l2s_train_steps_total 42`,
		`l2s_train_epoch_loss{epoch="00"} 0.5`,
		`l2s_noc_packet_latency_cycles_bucket{le="+Inf"} 3`,
		`l2s_noc_packet_latency_cycles_sum 1022`,
		`l2s_span_hits_total{path="train/step"} 1`,
		`l2s_live_window 0`,
		`l2s_train_steps_rate 42`,
		`l2s_noc_packet_latency_cycles_p50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic output.
	var buf2 bytes.Buffer
	if err := WriteMetrics(&buf2, r, p); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("WriteMetrics not deterministic for a fixed registry state")
	}
}

func TestWriteMetricsNilPlane(t *testing.T) {
	r, _ := populated(t)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "l2s_live_window") {
		t.Error("nil plane still emitted live series")
	}
	if errs := Lint(strings.NewReader(buf.String())); len(errs) > 0 {
		t.Errorf("plane-less exposition fails lint: %v", errs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r, p := populated(t)
	run := &Run{reg: r, plane: p}
	rec := httptest.NewRecorder()
	run.Metrics().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if errs := Lint(rec.Body); len(errs) > 0 {
		t.Errorf("endpoint body fails lint: %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"counter without _total": "# HELP l2s_x c\n# TYPE l2s_x counter\nl2s_x 1\n",
		"no TYPE":                "l2s_y 1\n",
		"negative counter":       "# HELP l2s_x_total c\n# TYPE l2s_x_total counter\nl2s_x_total -1\n",
		"non-cumulative buckets": "# HELP l2s_h h\n# TYPE l2s_h histogram\nl2s_h_bucket{le=\"1\"} 5\nl2s_h_bucket{le=\"2\"} 3\nl2s_h_bucket{le=\"+Inf\"} 5\nl2s_h_sum 9\nl2s_h_count 5\n",
		"missing +Inf bucket":    "# HELP l2s_h h\n# TYPE l2s_h histogram\nl2s_h_bucket{le=\"1\"} 5\nl2s_h_sum 9\nl2s_h_count 5\n",
		"duplicate series":       "# HELP l2s_g g\n# TYPE l2s_g gauge\nl2s_g 1\nl2s_g 2\n",
		"malformed sample":       "# HELP l2s_g g\n# TYPE l2s_g gauge\nl2s_g one\n",
		"TYPE without HELP":      "# TYPE l2s_g gauge\nl2s_g 1\n",
	}
	for name, expo := range cases {
		if errs := Lint(strings.NewReader(expo)); len(errs) == 0 {
			t.Errorf("%s: lint accepted\n%s", name, expo)
		}
	}
	clean := "# HELP l2s_g g\n# TYPE l2s_g gauge\nl2s_g{a=\"x\"} 1\nl2s_g{a=\"y\"} 2\n"
	if errs := Lint(strings.NewReader(clean)); len(errs) != 0 {
		t.Errorf("clean exposition rejected: %v", errs)
	}
}
