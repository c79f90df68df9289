package live

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"learn2scale/internal/obs"
	"learn2scale/internal/parallel"
	"learn2scale/internal/timeline"
)

// Run is one command's observability run: the flags shared by the l2s
// commands, the planes they request, and the order those planes start
// and finish in. Every command wires it the same way:
//
//	run := live.NewRun(flag.CommandLine)
//	flag.Parse()
//	if err := run.Start(*verbose); err != nil { ... }
//	// the workload reads run.Registry() and run.Timeline()
//	if err := run.Finish(tool, meta, summaryW); err != nil { ... }
//
// The flags are -obs (flight-record path), -obs-timing (attach the
// volatile profile section), -pprof (debug-server address), -timeline
// (cycle-accurate event-trace path), -live (windowed JSONL telemetry
// stream), -live-clock (wall-clock windows instead of deterministic
// boundaries), -health (per-window threshold rules) and -workers (the
// host worker count).
type Run struct {
	obsPath   string
	timing    bool
	pprof     string
	tlPath    string
	livePath  string
	liveClock time.Duration
	health    string
	workers   int

	// TimelineMeta, when non-nil, replaces Finish's meta in the
	// timeline record: for a command whose timeline traces a run other
	// than the one its flight record describes.
	TimelineMeta map[string]string

	reg      *obs.Registry
	tl       *timeline.Sink
	plane    *Plane
	liveFile *os.File
	addr     string // the debug server's bound address
	stop     func() error
}

// NewRun registers the shared flags on fs. Call before fs.Parse.
func NewRun(fs *flag.FlagSet) *Run {
	r := &Run{}
	fs.StringVar(&r.obsPath, "obs", "", "write the run's flight record to this file (.csv for CSV, else JSON)")
	fs.BoolVar(&r.timing, "obs-timing", false, "include the volatile profile section (wall-clock spans, per-worker utilization) in the flight record")
	fs.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060) for live monitoring")
	fs.StringVar(&r.tlPath, "timeline", "", "write the run's cycle-accurate event timeline to this file (.json for Perfetto/chrome://tracing trace events, else the compact record for l2s-trace)")
	fs.StringVar(&r.livePath, "live", "", "stream windowed telemetry snapshots to this JSONL file (windows close at deterministic epoch/run boundaries; see -live-clock)")
	fs.DurationVar(&r.liveClock, "live-clock", 0, "close live windows on this wall-clock period (e.g. 500ms) instead of deterministic boundaries; includes volatile metrics")
	fs.StringVar(&r.health, "health", "", "per-window health rules, ';'-separated (e.g. 'noc.lost_transfers.rate > 0.01'); any violation makes the run exit non-zero")
	fs.IntVar(&r.workers, "workers", 0, "host worker threads (sets "+parallel.EnvWorkers+"; 0 = GOMAXPROCS)")
	return r
}

// Start applies -workers, then builds what the flags request: a
// registry when any output needs one (-obs, -pprof, -live, -health, or
// the command's verbose summary), attached to the worker pool's
// metrics; the timeline sink; the live plane tapping the registry; and
// the debug server. Nothing is built without flags, and every consumer
// treats the nil registry and sink as disabled.
func (r *Run) Start(verbose bool) error {
	if r.workers > 0 {
		os.Setenv(parallel.EnvWorkers, strconv.Itoa(r.workers))
	}
	if r.obsPath != "" || r.pprof != "" || r.livePath != "" || r.health != "" || verbose {
		r.reg = obs.New()
	}
	parallel.SetObs(r.reg)
	if r.tlPath != "" {
		r.tl = timeline.NewSink()
	}
	if r.livePath != "" || r.health != "" {
		rules, err := ParseRules(r.health)
		if err != nil {
			return err
		}
		cfg := Config{Clock: r.liveClock, Rules: rules}
		if r.livePath != "" {
			f, err := os.Create(r.livePath)
			if err != nil {
				return fmt.Errorf("live: create %s: %w", r.livePath, err)
			}
			r.liveFile, cfg.Out = f, f
		}
		r.plane = New(cfg)
		r.reg.SetTap(r.plane)
		r.plane.Start()
	}
	if r.pprof != "" {
		var err error
		if r.addr, r.stop, err = obs.ServeDebug(r.pprof, r.reg, r.Metrics()); err != nil {
			return fmt.Errorf("obs: -pprof %s: %w", r.pprof, err)
		}
		fmt.Fprintf(os.Stderr, "obs: profiling at http://%s/debug/pprof/ (flight record at /debug/obs, exposition at /metrics)\n", r.addr)
	}
	return nil
}

// Registry returns the run's registry: nil, the zero-cost disabled
// sink, when no output needs one.
func (r *Run) Registry() *obs.Registry { return r.reg }

// Timeline returns the run's timeline sink: nil, the zero-cost
// disabled tracer, without -timeline.
func (r *Run) Timeline() *timeline.Sink { return r.tl }

// Metrics returns the Prometheus exposition handler over the run's
// registry and live plane, or nil when the run has no registry.
func (r *Run) Metrics() http.Handler {
	if r.reg == nil {
		return nil
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteMetrics(w, r.reg, r.plane); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// HealthError is returned by Finish when health rules were violated;
// commands turn it into a nonzero exit so CI can gate on windowed
// telemetry.
type HealthError struct{ Violations []Violation }

func (e *HealthError) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("live: %d health violation(s): %s", len(e.Violations), strings.Join(parts, "; "))
}

// Finish ends the run, in order: it writes the flight record (and the
// human summary to summaryW, if non-nil), writes the timeline, closes
// the live stream, and stops the debug server — gracefully, so an
// in-flight scrape completes. Every step runs even when an earlier one
// fails; the first failure is returned. Health violations come last,
// as a *HealthError, after every output is written. Meta must hold
// only run-stable keys so the records stay byte-identical across host
// worker counts.
func (r *Run) Finish(tool string, meta map[string]string, summaryW io.Writer) error {
	err := r.writeRecord(tool, meta, summaryW)
	tlMeta := meta
	if r.TimelineMeta != nil {
		tlMeta = r.TimelineMeta
	}
	if terr := r.writeTimeline(tool, tlMeta); err == nil {
		err = terr
	}
	if lerr := r.closeLive(); err == nil {
		err = lerr
	}
	if r.stop != nil {
		if serr := r.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	if v := r.plane.Violations(); len(v) > 0 {
		return &HealthError{Violations: v}
	}
	return nil
}

// writeRecord writes the flight record to the -obs path: CSV when it
// ends in .csv, JSON otherwise.
func (r *Run) writeRecord(tool string, meta map[string]string, summaryW io.Writer) error {
	if r.reg == nil {
		return nil
	}
	rec := r.reg.Record(tool, meta, r.timing)
	if r.obsPath != "" {
		write := rec.WriteJSON
		if strings.HasSuffix(r.obsPath, ".csv") {
			write = rec.WriteCSV
		}
		if err := writeFile(r.obsPath, write); err != nil {
			return fmt.Errorf("obs: write %s: %w", r.obsPath, err)
		}
	}
	if summaryW != nil {
		fmt.Fprintf(summaryW, "\n%s", rec.Summary())
	}
	return nil
}

// writeTimeline writes the -timeline path: Chrome trace-event JSON when
// it ends in .json (load it at ui.perfetto.dev), the compact
// deterministic record otherwise.
func (r *Run) writeTimeline(tool string, meta map[string]string) error {
	if r.tl == nil {
		return nil
	}
	write, kind := r.tl.WriteRecord, "record"
	if strings.HasSuffix(r.tlPath, ".json") {
		write, kind = r.tl.WritePerfetto, "perfetto trace"
	}
	err := writeFile(r.tlPath, func(w io.Writer) error { return write(w, tool, meta) })
	if err != nil {
		return fmt.Errorf("obs: write timeline %s: %w", r.tlPath, err)
	}
	fmt.Fprintf(os.Stderr, "obs: timeline %s (%d events) written to %s\n", kind, r.tl.Events(), r.tlPath)
	return nil
}

// closeLive closes the plane's final window and the -live stream file.
func (r *Run) closeLive() error {
	if r.plane == nil {
		return nil
	}
	err := r.plane.Close()
	if r.liveFile != nil {
		if cerr := r.liveFile.Close(); err == nil {
			err = cerr
		}
		fmt.Fprintf(os.Stderr, "live: telemetry stream (%d windows) written to %s\n", r.plane.window, r.livePath)
	}
	if err != nil {
		return fmt.Errorf("live: stream %s: %w", r.livePath, err)
	}
	return nil
}

// writeFile creates path, writes it with write and closes it,
// returning the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
