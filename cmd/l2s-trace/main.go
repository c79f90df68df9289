// Command l2s-trace reads every artifact the other l2s commands write,
// validates it with the reader of the package that wrote it, and
// reports on it. Its main input is the cycle-accurate timeline record
// written with -timeline: the per-layer critical transfer chain, the
// queueing-vs-serialization-vs-hop-latency breakdown, and the per-link
// heat table. With several records it prints a side-by-side scheme
// comparison — the hop-by-hop view of the paper's locality claim — and
// -gate-mean-hops turns that comparison into an exit-status gate
// (every later record must have a strictly lower mean hop count than
// the first) for CI. A record with no events is an error.
//
// Usage:
//
//	l2s-sim -net mlp -scheme ssmask -timeline ssmask.tl
//	l2s-trace ssmask.tl                         # single-record report
//	l2s-trace -top 20 ssmask.tl                 # deeper link heat table
//	l2s-trace -compare baseline.tl ssmask.tl    # side-by-side schemes
//	l2s-trace -compare -gate-mean-hops baseline.tl ssmask.tl
//	l2s-trace -perfetto trace.json ssmask.tl    # convert for Perfetto
//
// A .json argument is instead Perfetto trace-event JSON (written by
// -timeline x.json, -perfetto or l2s-serve -serve-perfetto), and
// l2s-trace checks the structure a trace viewer depends on
// (timeline.ReadPerfetto): metadata first, sorted timestamps, named
// processes, balanced B/E pairs per track, and every flow arrow bound
// to a slice.
//
//	l2s-trace trace.json
//
// The other inputs are named by flag, one per run:
//
//	l2s-trace -record rec.json [-require-noc] [-require-training]
//	          [-require-sim] [-require-workers] [-require-serve]
//	          [-min-latency-buckets N]
//	l2s-trace -live stream.jsonl [-min-windows N] [-require-serve]
//	l2s-trace -prom metrics.txt
//	l2s-trace -serve st.jsonl
//
// -record validates a flight record (-obs output): it must parse and
// be non-empty, and each -require-* flag demands the section a run of
// that kind produces. -require-serve demands balanced serve.requests
// and serve.responses counters, the serve.batch_size histogram and the
// sim.layer.* gauges, and rejects a volatile serving metric
// (serve.latency, serve.queue_depth) leaked into the stable sections.
//
// -live validates a windowed telemetry stream (-live output) and
// prints a per-window digest; with -require-serve it also needs a
// serve.batch window and no volatile serving metric in the stream.
// -prom lints a scraped /metrics exposition promlint-style.
//
// -serve validates a serve-trace log (l2s-serve -serve-trace), which
// must record at least one batch. For a wall-clock log
// (-trace-wall) it prints the serving plane's latency attribution:
// per-model phase shares of mean latency (they sum to 1 — the
// decomposition telescopes) and the tail-blame phase that dominates
// requests at or above the p99 total.
//
//	l2s-serve -net mlp -script reqs.jsonl -serve-trace st.jsonl -trace-wall
//	l2s-trace -serve st.jsonl
//
// These checks were once a separate tools/obscheck command; its calls
// map as follows:
//
//	obscheck [-require-* ...] rec.json  →  l2s-trace -record rec.json [-require-* ...]
//	obscheck -serve rec.json            →  l2s-trace -record rec.json -require-serve
//	obscheck -live [-serve] s.jsonl     →  l2s-trace -live s.jsonl [-require-serve]
//	obscheck -prom m.txt                →  l2s-trace -prom m.txt
//	obscheck -timeline x.tl|x.json      →  l2s-trace x.tl|x.json
//	obscheck -serve-trace st.jsonl      →  l2s-trace -serve st.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"

	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/serve"
	"learn2scale/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2s-trace: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// scope names the input kinds each narrowing flag applies to. A flag
// given with another input is an error, so a check never silently
// goes unmade.
var scope = map[string][]string{
	"compare":             {"timeline"},
	"gate-mean-hops":      {"timeline"},
	"top":                 {"timeline"},
	"perfetto":            {"timeline"},
	"require-noc":         {"record"},
	"require-training":    {"record"},
	"require-sim":         {"record"},
	"require-workers":     {"record"},
	"min-latency-buckets": {"record"},
	"require-serve":       {"record", "live"},
	"min-windows":         {"live"},
}

// requirements are the sections a flight record must carry.
type requirements struct {
	noc, training, sim, workers, serve bool
	minBuckets                         int
}

// run parses args, reads the one input they name and writes its report
// to stdout. Any invalid input or unmet requirement is an error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("l2s-trace", flag.ContinueOnError)
	compare := fs.Bool("compare", false, "compare several timeline records side by side")
	gate := fs.Bool("gate-mean-hops", false, "with -compare: exit non-zero unless every later record has a strictly lower mean hop count than the first")
	top := fs.Int("top", 10, "rows in the link heat table")
	perfetto := fs.String("perfetto", "", "convert the record to Chrome trace-event JSON at this path (load in ui.perfetto.dev) instead of analyzing")
	recordPath := fs.String("record", "", "validate a flight record (from any l2s command's -obs flag) instead of a timeline record")
	liveStream := fs.String("live", "", "validate and summarize a live telemetry JSONL stream (from any l2s command's -live flag) instead of a timeline record")
	promPath := fs.String("prom", "", "lint a Prometheus text exposition (a scrape of any l2s command's /metrics) instead of a timeline record")
	serveLog := fs.String("serve", "", "validate a serve-trace JSONL log (from l2s-serve -serve-trace); for a wall-clock log, print per-phase latency attribution and tail blame per model")
	var req requirements
	fs.BoolVar(&req.noc, "require-noc", false, "with -record: require NoC metrics (packet-latency histogram, packet/flit counters)")
	fs.BoolVar(&req.training, "require-training", false, "with -record: require per-epoch training gauges")
	fs.BoolVar(&req.sim, "require-sim", false, "with -record: require per-layer simulation gauges")
	fs.BoolVar(&req.workers, "require-workers", false, "with -record: require per-worker pool utilization in the profile section (-obs-timing records)")
	fs.IntVar(&req.minBuckets, "min-latency-buckets", 0, "with -record: minimum non-empty packet-latency histogram bucket count")
	fs.BoolVar(&req.serve, "require-serve", false, "with -record: require the serve.* request accounting; with -live: require serve.batch windows; both: no volatile serving metric")
	minWindows := fs.Int("min-windows", 0, "with -live: minimum window count")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode, path := "timeline", ""
	for _, in := range []struct{ mode, path string }{
		{"record", *recordPath}, {"live", *liveStream}, {"prom", *promPath}, {"serve", *serveLog},
	} {
		if in.path == "" {
			continue
		}
		if path != "" {
			return fmt.Errorf("-%s and -%s both given; read one input per run", mode, in.mode)
		}
		mode, path = in.mode, in.path
	}
	if path != "" && fs.NArg() > 0 {
		return fmt.Errorf("-%s takes no further arguments, got %q", mode, fs.Args())
	}
	var misplaced error
	fs.Visit(func(f *flag.Flag) {
		if kinds, ok := scope[f.Name]; ok && !slices.Contains(kinds, mode) && misplaced == nil {
			misplaced = fmt.Errorf("-%s applies to %s input, not %s", f.Name, strings.Join(kinds, " or "), mode)
		}
	})
	if misplaced != nil {
		return misplaced
	}

	switch mode {
	case "record":
		return checkRecord(path, req, stdout)
	case "live":
		return summarizeLive(path, *minWindows, req.serve, stdout)
	case "prom":
		return lintProm(path, stdout)
	case "serve":
		return analyzeServe(path, stdout)
	}

	files := fs.Args()
	if len(files) == 0 {
		return errors.New("no timeline record given (write one with any l2s command's -timeline flag)")
	}
	if *compare {
		if len(files) < 2 {
			return errors.New("-compare needs at least two records")
		}
	} else if len(files) > 1 {
		return fmt.Errorf("%d records given; use -compare to analyze several", len(files))
	}
	if !*compare && *perfetto == "" && strings.HasSuffix(files[0], ".json") {
		return checkPerfetto(files[0], stdout)
	}

	tls := make([]*timeline.Timeline, len(files))
	for i, f := range files {
		tl, err := read(f)
		if err != nil {
			return err
		}
		tls[i] = tl
	}

	if *perfetto != "" {
		tl := tls[0]
		f, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		werr := tl.Sink().WritePerfetto(f, tl.Tool, tl.Meta)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "wrote Perfetto trace to %s (load it at ui.perfetto.dev)\n", *perfetto)
		return nil
	}

	as := make([]*timeline.Analysis, len(tls))
	labels := make([]string, len(tls))
	for i, tl := range tls {
		a, err := timeline.Analyze(tl)
		if err != nil {
			return fmt.Errorf("%s: %v", files[i], err)
		}
		as[i] = a
		labels[i] = label(files[i], tl)
	}

	if !*compare {
		fmt.Fprint(stdout, as[0].Format(*top))
		return nil
	}
	fmt.Fprint(stdout, timeline.FormatCompare(as, labels))
	if *gate {
		base := as[0].MeanHops()
		for i := 1; i < len(as); i++ {
			if h := as[i].MeanHops(); h >= base {
				return fmt.Errorf("gate failed: %s mean hop count %.3f is not strictly below %s's %.3f",
					labels[i], h, labels[0], base)
			}
		}
		fmt.Fprintf(stdout, "\ngate passed: every record beats %s's mean hop count of %.3f\n", labels[0], base)
	}
	return nil
}

// problemsError joins a file's unmet requirements into one error.
func problemsError(path string, problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("%s:\n  %s", path, strings.Join(problems, "\n  "))
}

// checkRecord validates a flight record: it must parse and be
// non-empty, and carry every section req demands.
func checkRecord(path string, req requirements, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := obs.ReadRecord(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if rec.Snapshot.Empty() {
		return fmt.Errorf("%s: flight record is empty", path)
	}

	var problems []string
	if req.noc {
		_, packets := counter(rec, "noc.packets")
		_, flits := counter(rec, "noc.flits")
		if !packets || !flits {
			problems = append(problems, "missing noc.packets/noc.flits counters")
		}
		if findHistogram(rec, "noc.packet_latency_cycles") == nil {
			problems = append(problems, "missing noc.packet_latency_cycles histogram")
		}
	}
	if req.minBuckets > 0 {
		h := findHistogram(rec, "noc.packet_latency_cycles")
		if h == nil {
			problems = append(problems, "missing noc.packet_latency_cycles histogram")
		} else if len(h.Counts) < req.minBuckets {
			problems = append(problems, fmt.Sprintf("latency histogram has %d buckets, want >= %d", len(h.Counts), req.minBuckets))
		}
	}
	if req.training && countGauges(rec, ".epoch.") == 0 {
		problems = append(problems, "no per-epoch training gauges")
	}
	if req.sim && countGauges(rec, "sim.layer.") == 0 {
		problems = append(problems, "no per-layer simulation gauges")
	}
	if req.serve {
		problems = append(problems, checkServeRecord(rec)...)
	}
	if req.workers {
		ok := false
		if rec.Profile != nil {
			for _, c := range rec.Profile.Counters {
				ok = ok || strings.HasPrefix(c.Name, "parallel.worker.")
			}
		}
		if !ok {
			problems = append(problems, "no per-worker pool utilization (was the record written with -obs-timing?)")
		}
	}
	if err := problemsError(path, problems); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: ok (tool=%s, %d counters, %d gauges, %d histograms, %d spans)\n",
		path, rec.Tool, len(rec.Counters), len(rec.Gauges), len(rec.Histograms), len(rec.Spans))
	return nil
}

// checkServeRecord enforces the serving path's flight-record contract:
// balanced request accounting in the stable sections, the batch-size
// histogram, the per-layer simulation gauges the batched pipeline
// passes produce, and no volatile serving metric leaked into the
// byte-compared sections.
func checkServeRecord(rec obs.FlightRecord) []string {
	var problems []string
	reqs, haveReqs := counter(rec, "serve.requests")
	resps, haveResps := counter(rec, "serve.responses")
	switch {
	case !haveReqs || !haveResps:
		problems = append(problems, "missing serve.requests/serve.responses counters")
	case reqs != resps:
		problems = append(problems, fmt.Sprintf("unbalanced serving accounting: %d requests, %d responses", reqs, resps))
	case reqs == 0:
		problems = append(problems, "serving counters present but zero requests were served")
	}
	if findHistogram(rec, "serve.batch_size") == nil {
		problems = append(problems, "missing serve.batch_size histogram")
	}
	if countGauges(rec, "sim.layer.") == 0 {
		problems = append(problems, "no per-layer simulation gauges (did the batches run the pipeline?)")
	}
	if findHistogram(rec, "serve.latency") != nil {
		problems = append(problems, "volatile serve.latency leaked into the stable record")
	}
	for _, g := range rec.Gauges {
		if g.Name == "serve.queue_depth" {
			problems = append(problems, "volatile serve.queue_depth leaked into the stable record")
		}
	}
	return problems
}

func counter(rec obs.FlightRecord, name string) (int64, bool) {
	for _, c := range rec.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

func findHistogram(rec obs.FlightRecord, name string) *obs.HistogramSnap {
	for i := range rec.Histograms {
		if rec.Histograms[i].Name == name {
			return &rec.Histograms[i]
		}
	}
	return nil
}

func countGauges(rec obs.FlightRecord, substr string) int {
	n := 0
	for _, g := range rec.Gauges {
		if strings.Contains(g.Name, substr) {
			n++
		}
	}
	return n
}

// summarizeLive validates a live telemetry JSONL stream and prints a
// per-window digest: what closed each window and how much it held.
// With reqServe the stream must hold a serve.batch window and no
// volatile serving metric.
func summarizeLive(path string, minWindows int, reqServe bool, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snaps, err := live.ReadStream(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(snaps) < minWindows {
		return fmt.Errorf("%s: %d windows, want >= %d", path, len(snaps), minWindows)
	}
	if reqServe {
		var problems []string
		batchWindows := 0
		for _, s := range snaps {
			if s.Label == "serve.batch" {
				batchWindows++
			}
			for _, g := range s.Gauges {
				if g.Name == "serve.queue_depth" {
					problems = append(problems, fmt.Sprintf("window %d: volatile serve.queue_depth in deterministic stream", s.Window))
				}
			}
			for _, h := range s.Hists {
				if h.Name == "serve.latency" {
					problems = append(problems, fmt.Sprintf("window %d: volatile serve.latency in deterministic stream", s.Window))
				}
			}
		}
		if batchWindows == 0 {
			problems = append(problems, "no serve.batch-labeled windows (did the server execute any batches?)")
		}
		if err := problemsError(path, problems); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%s: %d windows, stream invariants hold\n\n", path, len(snaps))
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "window\tlabel\tspan\tcounters\tgauges\thists\ttop counter by rate")
	for _, s := range snaps {
		top := ""
		var best float64
		for _, c := range s.Counters {
			if c.Rate > best {
				best, top = c.Rate, fmt.Sprintf("%s (%.4g/u)", c.Name, c.Rate)
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%g\t%d\t%d\t%d\t%s\n",
			s.Window, s.Label, s.Span, len(s.Counters), len(s.Gauges), len(s.Hists), top)
	}
	return w.Flush()
}

// lintProm runs the promlint-style checks on a scraped exposition.
func lintProm(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	errs := live.Lint(f)
	problems := make([]string, len(errs))
	for i, e := range errs {
		problems[i] = e.Error()
	}
	if err := problemsError(path, problems); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: ok (exposition parses cleanly)\n", path)
	return nil
}

// analyzeServe validates a serve-trace log; for a wall-clock log it
// prints the serving plane's latency attribution: per-model phase
// shares of mean latency (the telescoping decomposition guarantees
// they sum to 1) and the phase that dominates the requests at or above
// the p99 total.
func analyzeServe(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tlog, err := serve.ReadTraceLog(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(tlog.Batches) == 0 {
		return fmt.Errorf("%s: serve-trace log records no batches", path)
	}
	var an *serve.TraceAnalysis
	if tlog.Wall {
		if an, err = serve.AnalyzeTrace(tlog); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	fmt.Fprintf(stdout, "%s: %d batches, %d traced requests (tool %s), trace invariants hold\n",
		path, len(tlog.Batches), len(tlog.Reqs), tlog.Tool)
	if an == nil {
		fmt.Fprintln(stdout, "stable-mode log: no wall-clock phases to attribute (re-run l2s-serve with -trace-wall)")
		return nil
	}
	fmt.Fprintln(stdout)
	an.WriteTable(stdout)
	return nil
}

// checkPerfetto validates Perfetto trace-event JSON with
// timeline.ReadPerfetto and prints what it holds.
func checkPerfetto(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := timeline.ReadPerfetto(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Fprintf(stdout, "%s: ok (%d events: %d slices, %d span pairs, %d flows, %d instants)\n",
		path, st.Events, st.Slices, st.SpanPairs, st.Flows, st.Instants)
	return nil
}

// read loads and validates one timeline record, which must hold at
// least one event.
func read(path string) (*timeline.Timeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tl, err := timeline.ReadRecord(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, s := range tl.Sections {
		if len(s.Events) > 0 {
			return tl, nil
		}
	}
	return nil, fmt.Errorf("%s: timeline record is empty", path)
}

// label names a record in the comparison table: its scheme when the
// producing command recorded one, else the file's base name.
func label(path string, tl *timeline.Timeline) string {
	if s := tl.Meta["scheme"]; s != "" && s != "none" {
		return s
	}
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}
