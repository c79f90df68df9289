// The determinism harness holds every stable artifact — trained
// weights, reports, flight records, live streams, timeline records,
// serve traces — to two contracts. Each is byte-identical at every host
// worker count, because chunk boundaries and fold order in
// internal/parallel are pure functions of the problem size. And each
// workers=1 artifact hashes to its sha256 in testdata/golden.sum, so a
// change that alters a record identically at every worker count still
// fails. Each row runs once per worker count; the tests below are
// assertions over the cached runs.
package learn2scale_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"learn2scale"
	"learn2scale/internal/obs"
	"learn2scale/internal/obs/live"
	"learn2scale/internal/parallel"
	"learn2scale/internal/serve"
)

const goldenFile = "testdata/golden.sum"

var (
	allWorkers = []int{1, 2, 7}
	// sessionPipeline is the session row's pipelined pass.
	sessionPipeline = learn2scale.PipelineOptions{Depth: 2, Batches: 3}
)

// row is one golden session of the harness.
type row struct {
	name  string
	short []int // worker counts under -short; nil skips the row there
	run   func() (*rowRun, error)
}

// table holds the three row producers: a session per scheme, the
// fault sweep and the serve-script replay.
var table = []row{
	sessionRow("baseline", learn2scale.Baseline, nil),
	sessionRow("struct", learn2scale.StructureLevel, nil),
	sessionRow("ss", learn2scale.SS, nil),
	sessionRow("ssmask", learn2scale.SSMask, allWorkers),
	{"fault", allWorkers, runFault},
	{"serve", []int{1, 7}, func() (*rowRun, error) { return runServe(true) }},
}

func sessionRow(label string, scheme learn2scale.Scheme, short []int) row {
	return row{"session/" + label, short, func() (*rowRun, error) { return runSession(label, scheme, true) }}
}

// workers returns the row's worker counts in this mode, workers=1
// first; nil when the row does not run.
func (r row) workers() []int {
	if testing.Short() {
		return r.short
	}
	return allWorkers
}

// sessions returns the names of the session rows that run in this mode.
func sessions() []string {
	var names []string
	for _, r := range table {
		if strings.HasPrefix(r.name, "session/") && r.workers() != nil {
			names = append(names, r.name)
		}
	}
	return names
}

// artifact is one named stable output of a run.
type artifact struct {
	name string
	data []byte
}

// rowRun is one run of a row at one host worker count.
type rowRun struct {
	label string // row@workers
	arts  []artifact
	reg   *obs.Registry             // the run's registry, volatile profile included
	model *learn2scale.TrainedModel // session rows only
	err   error                     // first write error
}

func (r *rowRun) add(name string, data []byte) {
	r.arts = append(r.arts, artifact{name, data})
}

// put adds the artifact write produces; the first error sticks in r.err.
func (r *rowRun) put(name string, write func(io.Writer) error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil && r.err == nil {
		r.err = fmt.Errorf("write %s: %w", name, err)
	}
	r.add(name, buf.Bytes())
}

func (r *rowRun) putJSON(name string, v any) {
	r.put(name, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

func (r *rowRun) art(name string) []byte {
	for _, a := range r.arts {
		if a.name == name {
			return a.data
		}
	}
	panic(r.label + " has no artifact " + name)
}

var runCache = map[string]*rowRun{}

// cached runs fn once per (key, workers) with L2S_WORKERS set and
// returns the memoized run thereafter.
func cached(t *testing.T, key string, workers int, fn func() (*rowRun, error)) *rowRun {
	t.Helper()
	label := fmt.Sprintf("%s@%d", key, workers)
	if r, ok := runCache[label]; ok {
		return r
	}
	t.Setenv(learn2scale.EnvWorkers, strconv.Itoa(workers))
	r, err := fn()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r.label = label
	runCache[label] = r
	return r
}

// runsOf returns the named row's runs in worker-count order, workers=1
// first.
func runsOf(t *testing.T, name string) []*rowRun {
	t.Helper()
	for _, r := range table {
		if r.name != name {
			continue
		}
		if r.workers() == nil {
			t.Skipf("%s does not run under -short", name)
		}
		var runs []*rowRun
		for _, w := range r.workers() {
			runs = append(runs, cached(t, name, w, r.run))
		}
		return runs
	}
	t.Fatalf("no row %q", name)
	return nil
}

// assertSame fails for every named artifact in which got differs from ref.
func assertSame(t *testing.T, ref, got *rowRun, names ...string) {
	t.Helper()
	for _, n := range names {
		a, b := ref.art(n), got.art(n)
		if bytes.Equal(a, b) {
			continue
		}
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Errorf("%s: %s differs from %s from byte %d of %d:\n  want %q\n  got  %q",
			n, got.label, ref.label, i, len(a), a[i:min(i+80, len(a))], b[i:min(i+80, len(b))])
	}
}

// assertIdentical checks the named artifacts of every run of the row
// against its workers=1 run and returns the runs.
func assertIdentical(t *testing.T, name string, names ...string) []*rowRun {
	t.Helper()
	runs := runsOf(t, name)
	for _, run := range runs[1:] {
		assertSame(t, runs[0], run, names...)
	}
	return runs
}

func bitsOf(vs []float32) []uint32 {
	bits := make([]uint32, len(vs))
	for i, v := range vs {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

// runSession is the session row: train the MLP under one scheme,
// simulate it with a timeline, run it through a depth-2 pipeline, then
// quantize to int16 and simulate again. The observed run taps a
// deterministic live plane and attaches both timeline sinks; the bare
// run keeps only the registry, for the pure-observation tests.
func runSession(label string, scheme learn2scale.Scheme, observed bool) (*rowRun, error) {
	reg := obs.New()
	var stream bytes.Buffer
	var plane *live.Plane
	var tl, ptl *learn2scale.TimelineSink
	if observed {
		plane = live.New(live.Config{Out: &stream}) // Clock 0: deterministic mode
		reg.SetTap(plane)
		tl, ptl = learn2scale.NewTimeline(), learn2scale.NewTimeline()
	}
	parallel.SetObs(reg)
	defer parallel.SetObs(nil)

	ds := learn2scale.MNISTLike(80, 40, 3)
	opt := learn2scale.DefaultTrainOptions(4)
	opt.SGD.Epochs = 3
	opt.SGD.LearningRate = 0.03
	// Strong enough that SS_Mask prunes blocks, so the row simulates a
	// sparse plan, not the dense one.
	opt.Lambda = 0.05
	opt.Obs = reg
	m, err := learn2scale.Train(scheme, learn2scale.MLP(), ds, opt)
	if err != nil {
		return nil, err
	}
	floatRep, err := m.SimulateTimeline(tl, 0)
	if err != nil {
		return nil, err
	}
	pipeRep, err := m.SimulatePipeline(sessionPipeline, ptl, 0)
	if err != nil {
		return nil, err
	}
	m.Quantize(ds, learn2scale.CalibConfig{Method: learn2scale.CalibMaxAbs})
	intRep, err := m.Simulate()
	if err != nil {
		return nil, err
	}
	var logits [][]uint32
	for _, x := range ds.TestX {
		logits = append(logits, bitsOf(m.QNet.Forward(x).Data))
	}

	run := &rowRun{reg: reg, model: m}
	var weights []byte
	for _, p := range m.Net.Params() {
		for _, v := range p.W.Data {
			weights = binary.LittleEndian.AppendUint32(weights, math.Float32bits(v))
		}
	}
	run.add("weights", weights)
	run.add("accuracy", binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Accuracy)))
	run.add("penalty", binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Penalty)))
	run.putJSON("report.float.json", floatRep)
	run.putJSON("report.pipeline.json", pipeRep)
	run.putJSON("report.int16.json", intRep)
	run.putJSON("logits.int16.json", logits)
	meta := map[string]string{"net": "mlp", "scheme": label}
	run.put("flight.json", reg.Record("test", meta, false).WriteJSON)
	if observed {
		if err := plane.Close(); err != nil {
			return nil, err
		}
		run.add("live.jsonl", stream.Bytes())
		run.put("timeline.tl", func(w io.Writer) error { return tl.WriteRecord(w, "test", meta) })
		run.put("pipeline.tl", func(w io.Writer) error { return ptl.WriteRecord(w, "test", meta) })
	}
	return run, run.err
}

// runFault is the fault row: a miniature fault sweep, sized for the
// -race pass.
func runFault() (*rowRun, error) {
	reg := obs.New()
	parallel.SetObs(reg)
	defer parallel.SetObs(nil)

	opt := learn2scale.DefaultFaultOptions()
	opt.ImgSize = 8
	opt.Train, opt.Test = 40, 24
	opt.SGD.Epochs = 2
	opt.Rates = []float64{0, 0.05, 0.2}
	opt.RetryBudget = 1
	opt.Obs = reg
	rows, err := learn2scale.FaultSweep(opt)
	if err != nil {
		return nil, err
	}
	run := &rowRun{reg: reg}
	run.put("flight.json", reg.Record("faults", map[string]string{"exp": "faults"}, false).WriteJSON)
	run.putJSON("rows.json", rows)
	return run, run.err
}

// serveScript parses serve_script.jsonl, the request script that
// `l2s-serve -script` replays, and counts its requests.
func serveScript() (steps []learn2scale.ServeScriptStep, requests int, err error) {
	f, err := os.Open("serve_script.jsonl")
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	steps, err = serve.ReadScript(f)
	for _, s := range steps {
		requests += len(s.Samples)
	}
	return steps, requests, err
}

// runServe is the serve row: train the serving pool and replay
// serve_script.jsonl through the full serving layer. The traced run
// also streams stable serve-trace records; the untraced one is the
// pure-observation reference.
func runServe(traced bool) (*rowRun, error) {
	steps, _, err := serveScript()
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	var stream, trace bytes.Buffer
	plane := live.New(live.Config{Out: &stream}) // Clock 0: deterministic mode
	reg.SetTap(plane)
	parallel.SetObs(reg)
	defer parallel.SetObs(nil)

	cfg := learn2scale.ServeConfig{Depth: 2, Sims: 1, Obs: reg}
	var sink *learn2scale.ServeTraceSink
	if traced {
		sink = learn2scale.NewServeTraceSink(&trace, learn2scale.ServeTraceOptions{Stable: true, Tool: "test"})
		cfg.Trace = sink
	}
	models, err := learn2scale.NewServeModels(cfg, learn2scale.Table4Nets(learn2scale.Quick)[0],
		learn2scale.MNISTLike(80, 40, 3),
		[]learn2scale.Scheme{learn2scale.Baseline, learn2scale.StructureLevel, learn2scale.SS, learn2scale.SSMask},
		[]learn2scale.Precision{learn2scale.Float32, learn2scale.Int16}, 4, 3, 3)
	if err != nil {
		return nil, err
	}
	srv, err := learn2scale.NewServer(cfg, models)
	if err != nil {
		return nil, err
	}
	out, err := srv.RunScript(context.Background(), steps)
	srv.Close()
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return nil, err
		}
	}
	if err := plane.Close(); err != nil {
		return nil, err
	}
	var logits [][]uint32
	for _, step := range out {
		for _, resp := range step {
			logits = append(logits, bitsOf(resp.Logits))
		}
	}
	run := &rowRun{reg: reg}
	run.add("live.jsonl", stream.Bytes())
	run.put("flight.json", reg.Record("test", map[string]string{"net": "mlp"}, false).WriteJSON)
	run.putJSON("logits.json", logits)
	if traced {
		run.add("trace.jsonl", trace.Bytes())
	}
	return run, run.err
}

// TestDeterminismAcrossWorkers is the golden test of the parallel
// runtime: training and simulation produce bit-identical weights,
// accuracy, penalty and report at every host worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for i, w := range allWorkers[1:] {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			for _, name := range sessions() {
				runs := runsOf(t, name)
				assertSame(t, runs[0], runs[i+1], "weights", "accuracy", "penalty", "report.float.json")
			}
		})
	}
	// The golden session must simulate a pruned plan.
	if rate := runsOf(t, "session/ssmask")[0].model.TrafficRate(); rate >= 1 {
		t.Errorf("session/ssmask traffic rate %.3f, want < 1", rate)
	}
}

// TestFlightRecordDeterministicAcrossWorkers: the default (stable-only)
// flight record is byte-identical at every worker count; the volatile
// profile is excluded by construction.
func TestFlightRecordDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range sessions() {
		assertIdentical(t, name, "flight.json")
	}
}

// TestFlightRecordRoundTrip writes each SS_Mask session's record with
// the volatile profile attached and reads it back: it must deep-equal
// what was written and carry per-layer cycle gauges, per-epoch training
// gauges, the packet-latency histogram and per-worker utilization.
func TestFlightRecordRoundTrip(t *testing.T) {
	for _, run := range runsOf(t, "session/ssmask") {
		t.Run("workers="+strings.TrimPrefix(run.label, "session/ssmask@"), func(t *testing.T) {
			rec := run.reg.Record("test", map[string]string{"net": "mlp"}, true)
			var buf bytes.Buffer
			if err := rec.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := obs.ReadRecord(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, back) {
				t.Error("record changed across write+read round trip")
			}
			layer, epoch := false, false
			for _, g := range back.Gauges {
				layer = layer || strings.Contains(g.Name, "sim.layer.")
				epoch = epoch || strings.Contains(g.Name, ".epoch.")
			}
			if !layer || !epoch {
				t.Errorf("per-layer simulation gauges %v, per-epoch training gauges %v", layer, epoch)
			}
			buckets := 0
			for _, h := range back.Histograms {
				if h.Name == "noc.packet_latency_cycles" {
					buckets = len(h.Counts)
				}
			}
			if buckets < 4 {
				t.Errorf("packet-latency histogram has %d buckets, want >= 4", buckets)
			}
			if back.Profile == nil {
				t.Fatal("profile section missing despite withProfile=true")
			}
			workerUtil := false
			for _, c := range back.Profile.Counters {
				workerUtil = workerUtil || strings.Contains(c.Name, "parallel.worker.")
			}
			if !workerUtil {
				t.Error("no per-worker pool utilization in profile")
			}
		})
	}
}

// TestLiveStreamDeterministicAcrossWorkers: in deterministic mode the
// live stream admits only stable updates and closes windows at serial
// boundaries, so it is byte-identical at every worker count.
func TestLiveStreamDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range sessions() {
		t.Run(strings.TrimPrefix(name, "session/"), func(t *testing.T) {
			runs := assertIdentical(t, name, "live.jsonl")
			snaps, err := live.ReadStream(bytes.NewReader(runs[0].art("live.jsonl")))
			if err != nil {
				t.Fatalf("stream invalid: %v", err)
			}
			// 3 epoch windows + at least one simulation window + the
			// final catch-all from Close.
			if len(snaps) < 5 {
				t.Errorf("only %d windows in the session stream", len(snaps))
			}
		})
	}
}

// bareSession is the SS_Mask session at workers=1 with a registry but
// no live tap and no timeline sinks.
func bareSession(t *testing.T) *rowRun {
	return cached(t, "bare session/ssmask", 1, func() (*rowRun, error) {
		return runSession("ssmask", learn2scale.SSMask, false)
	})
}

// TestTapIsPureObserver: a live tap (and the timeline sinks) never
// perturb the flight record.
func TestTapIsPureObserver(t *testing.T) {
	assertSame(t, bareSession(t), runsOf(t, "session/ssmask")[0], "flight.json")
}

// TestTimelineRecordByteIdenticalAcrossWorkers: every timeline stamp
// is a simulated cycle, so the record is byte-identical at every
// worker count.
func TestTimelineRecordByteIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range sessions() {
		assertIdentical(t, name, "timeline.tl")
	}
}

// TestTimelineSinkPureObservation: a traced simulation reports exactly
// what an untraced one does, and a fault-free timeline has no
// retransmission or loss events and its sections in order.
func TestTimelineSinkPureObservation(t *testing.T) {
	traced := runsOf(t, "session/ssmask")[0]
	assertSame(t, bareSession(t), traced, "report.float.json")

	tl, err := learn2scale.ReadTimeline(bytes.NewReader(traced.art("timeline.tl")))
	if err != nil {
		t.Fatal(err)
	}
	a, err := learn2scale.AnalyzeTimeline(tl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Retransmits != 0 || a.LostPackets != 0 {
		t.Errorf("fault-free timeline has %d retransmits, %d lost packets", a.Retransmits, a.LostPackets)
	}
	if a.Overall.Packets == 0 || a.ComputeCycles == 0 || len(a.Sections) == 0 {
		t.Errorf("timeline empty: %d packets, %d compute cycles, %d sections",
			a.Overall.Packets, a.ComputeCycles, len(a.Sections))
	}
	for i, sec := range a.Sections {
		if sec.Index != i {
			t.Errorf("section %d has index %d", i, sec.Index)
		}
	}
}

// TestPipelineRecordsByteIdenticalAcrossWorkers: the stage scheduler
// stamps only simulated cycles, so the pipeline report and its timeline
// record are byte-identical at every worker count.
func TestPipelineRecordsByteIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range sessions() {
		assertIdentical(t, name, "report.pipeline.json", "pipeline.tl")
	}
}

// TestPipelineTimelinePureObservation: a timeline sink leaves the
// pipeline report unchanged, and the record carries one section per
// (batch, layer) tagged with its stage.
func TestPipelineTimelinePureObservation(t *testing.T) {
	traced := runsOf(t, "session/ssmask")[0]
	assertSame(t, bareSession(t), traced, "report.pipeline.json")

	tl, err := learn2scale.ReadTimeline(bytes.NewReader(traced.art("pipeline.tl")))
	if err != nil {
		t.Fatal(err)
	}
	p := sessionPipeline
	if want := p.Batches * len(traced.model.Plan.Layers); len(tl.Sections) != want {
		t.Fatalf("%d timeline sections, want %d (batches x layers)", len(tl.Sections), want)
	}
	maxStage, maxBatch := 0, 0
	for _, sec := range tl.Sections {
		maxStage, maxBatch = max(maxStage, sec.Stage), max(maxBatch, sec.Batch)
	}
	if maxStage != p.Depth-1 || maxBatch != p.Batches-1 {
		t.Errorf("max section stage %d, batch %d; want %d, %d", maxStage, maxBatch, p.Depth-1, p.Batches-1)
	}
}

// TestQuantRecordsByteIdenticalAcrossWorkers: the int16 path reduces
// with int32 wraparound adds, so the quantized report and logits are
// byte-identical at every worker count (the quant.accuracy_delta gauge
// is in the flight record).
func TestQuantRecordsByteIdenticalAcrossWorkers(t *testing.T) {
	for _, name := range sessions() {
		assertIdentical(t, name, "report.int16.json", "logits.int16.json")
	}
}

// TestFaultRecordDeterministicAcrossWorkers: fault decisions are
// stateless hashes and gauge names are fixed by grid position, so the
// sweep's record and rows do not depend on scheduling.
func TestFaultRecordDeterministicAcrossWorkers(t *testing.T) {
	rec := string(assertIdentical(t, "fault", "flight.json", "rows.json")[0].art("flight.json"))
	for _, want := range []string{
		"faults.baseline.rate00.accuracy",
		"faults.ssmask.rate02.lost_transfers",
		"faults.structure.rate01.retransmits",
		"faults.ss.rate02.total_cycles",
	} {
		if !strings.Contains(rec, want) {
			t.Errorf("fault record missing gauge %q", want)
		}
	}
}

// TestServeRecordDeterministicAcrossWorkers: the request script
// replayed through the serving layer yields a byte-identical live
// stream, flight record and logits at every worker count; the record
// carries the serve counters and no volatile metric, and the stream
// one serve.batch window per script step.
func TestServeRecordDeterministicAcrossWorkers(t *testing.T) {
	ref := assertIdentical(t, "serve", "live.jsonl", "flight.json", "logits.json")[0]
	steps, requests, err := serveScript()
	if err != nil {
		t.Fatal(err)
	}
	var logits [][]uint32
	if err := json.Unmarshal(ref.art("logits.json"), &logits); err != nil {
		t.Fatal(err)
	}
	if len(logits) != requests {
		t.Errorf("script answered %d responses, want %d", len(logits), requests)
	}

	rec, err := obs.ReadRecord(bytes.NewReader(ref.art("flight.json")))
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range rec.Counters {
		counters[c.Name] = c.Value
	}
	for name, want := range map[string]int64{
		"serve.requests":  int64(requests),
		"serve.responses": int64(requests),
		"serve.batches":   int64(len(steps)),
	} {
		if got, ok := counters[name]; !ok || got != want {
			t.Errorf("record counter %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if _, ok := counters["serve.rejected"]; ok {
		t.Error("volatile counter serve.rejected leaked into the stable record")
	}
	for _, h := range rec.Histograms {
		if h.Name == "serve.latency" {
			t.Error("volatile serve.latency leaked into the stable record")
		}
	}

	snaps, err := live.ReadStream(bytes.NewReader(ref.art("live.jsonl")))
	if err != nil {
		t.Fatalf("stream invalid: %v", err)
	}
	batchWindows := 0
	for _, sn := range snaps {
		if sn.Label == "serve.batch" {
			batchWindows++
		}
	}
	if batchWindows != len(steps) {
		t.Errorf("%d serve.batch windows, want %d", batchWindows, len(steps))
	}
}

// TestServeTraceIsPureObservation: a serve-trace sink leaves the live
// stream, flight record and logits byte-for-byte unchanged, and the
// stable trace it writes is valid, complete and byte-identical at every
// worker count.
func TestServeTraceIsPureObservation(t *testing.T) {
	untraced := cached(t, "untraced serve", 1, func() (*rowRun, error) { return runServe(false) })
	ref := assertIdentical(t, "serve", "trace.jsonl")[0]
	assertSame(t, untraced, ref, "live.jsonl", "flight.json", "logits.json")

	steps, requests, err := serveScript()
	if err != nil {
		t.Fatal(err)
	}
	tlog, err := learn2scale.ReadServeTraceLog(bytes.NewReader(ref.art("trace.jsonl")))
	if err != nil {
		t.Fatalf("trace log invalid: %v", err)
	}
	if tlog.Wall {
		t.Error("stable-class trace log claims wall-clock phases")
	}
	if len(tlog.Batches) != len(steps) || len(tlog.Reqs) != requests {
		t.Errorf("%d batch and %d request records, want %d and %d",
			len(tlog.Batches), len(tlog.Reqs), len(steps), requests)
	}
}

// TestRecordsMatchGolden checks the sha256 of every workers=1 artifact
// against testdata/golden.sum and fails on any mismatched, missing or
// stale line, printing the complete regenerated file: a deliberate
// record change re-pins by pasting it and reviewing the diff. Digests
// are pinned on amd64 only, where Go never fuses float multiply-adds
// (arm64, ppc64, s390x, riscv64 and loong64 do), so float32 training
// bits may differ elsewhere; worker identity holds everywhere.
func TestRecordsMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var keys, regen, bad []string
	pinned := map[string]string{} // artifact key -> its pinned line
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		key := line[strings.LastIndex(line, " ")+1:]
		keys = append(keys, key)
		pinned[key] = line
	}
	for _, r := range table {
		if r.workers() == nil {
			// Not run in this mode: carry its pinned lines over unchecked.
			for _, key := range keys {
				if line, ok := pinned[key]; ok && strings.HasPrefix(key, r.name+"/") {
					regen = append(regen, line)
					delete(pinned, key)
				}
			}
			continue
		}
		for _, a := range runsOf(t, r.name)[0].arts {
			key := r.name + "/" + a.name
			line := fmt.Sprintf("%x  %s", sha256.Sum256(a.data), key)
			regen = append(regen, line)
			switch want, ok := pinned[key]; {
			case !ok:
				bad = append(bad, "missing "+key)
			case want != line:
				bad = append(bad, "mismatch "+key)
			}
			delete(pinned, key)
		}
	}
	for _, key := range keys {
		if _, ok := pinned[key]; ok {
			bad = append(bad, "stale "+key)
		}
	}
	// Byte equality also rejects duplicate, reordered or malformed lines.
	if got := strings.Join(regen, "\n") + "\n"; got != string(data) {
		t.Errorf("records drifted from %s:\n  %s\nregenerated %s:\n%s",
			goldenFile, strings.Join(bad, "\n  "), goldenFile, got)
	}
}
