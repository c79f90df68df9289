package live

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"learn2scale/internal/obs"
	"learn2scale/internal/parallel"
	"learn2scale/internal/timeline"
)

// startRun parses args into a fresh Run and starts it.
func startRun(t *testing.T, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	run := NewRun(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := run.Start(false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parallel.SetObs(nil) })
	return run
}

// TestRunWritesEveryOutput turns on every output a Run has, in both
// formats of the record and of the timeline, and a health rule that
// fires: Finish must write each file completely, stop the debug
// server, and report the violation last, as a *HealthError.
func TestRunWritesEveryOutput(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "")
	for _, ext := range []struct{ rec, tl string }{{".json", ".tl"}, {".csv", ".json"}} {
		t.Run(ext.rec+ext.tl, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			run := startRun(t,
				"-obs", path("rec"+ext.rec), "-timeline", path("run"+ext.tl),
				"-live", path("live.jsonl"), "-health", "x.count.total > 0",
				"-pprof", "127.0.0.1:0", "-workers", "3")
			if got := os.Getenv(parallel.EnvWorkers); got != "3" {
				t.Errorf("%s = %q after -workers 3", parallel.EnvWorkers, got)
			}
			reg, tl := run.Registry(), run.Timeline()
			if reg == nil || tl == nil {
				t.Fatal("outputs requested but registry or timeline is nil")
			}
			reg.Counter("x.count", obs.Stable).Add(2)
			reg.Boundary("step", 1)
			tl.Section("burst").Compute(0, 10, 0)

			resp, err := http.Get("http://" + run.addr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			if errs := Lint(resp.Body); len(errs) > 0 {
				t.Errorf("/metrics fails lint: %v", errs)
			}
			resp.Body.Close()

			err = run.Finish("t", map[string]string{"k": "v"}, nil)
			var he *HealthError
			if !errors.As(err, &he) || len(he.Violations) == 0 {
				t.Fatalf("Finish = %v, want a *HealthError", err)
			}
			if _, err := http.Get("http://" + run.addr + "/metrics"); err == nil {
				t.Error("debug server still answers after Finish")
			}

			if ext.rec == ".json" {
				rec, err := obs.ReadRecord(open(t, path("rec.json")))
				if err != nil || rec.Tool != "t" || rec.Meta["k"] != "v" {
					t.Errorf("record %+v, err %v", rec, err)
				}
			} else if b := read(t, path("rec.csv")); !strings.Contains(string(b), "x.count") {
				t.Errorf("CSV record lacks the counter:\n%s", b)
			}
			if ext.tl == ".tl" {
				if got, err := timeline.ReadRecord(open(t, path("run.tl"))); err != nil || got.Sink().Events() != 1 {
					t.Errorf("timeline record: err %v", err)
				}
			} else if b := read(t, path("run.json")); !json.Valid(b) {
				t.Errorf("Perfetto timeline is not complete JSON:\n%s", b)
			}
			snaps, err := ReadStream(open(t, path("live.jsonl")))
			if err != nil || len(snaps) != 2 {
				t.Errorf("live stream: %d windows, err %v; want the step window and the final one", len(snaps), err)
			}
		})
	}
}

// TestRunWithoutFlags: a run asked for nothing builds nothing, and its
// Finish is a no-op.
func TestRunWithoutFlags(t *testing.T) {
	run := startRun(t)
	if run.Registry() != nil || run.Timeline() != nil {
		t.Fatal("no flags, yet a registry or timeline was built")
	}
	if err := run.Finish("t", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func open(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
