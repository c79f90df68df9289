// Command benchjson runs the repo's performance benchmarks (GEMM
// kernels, training step and epoch, NoC bursts, pipelined AlexNet
// inference, obs tap overhead, quantized inference, serving load,
// request-tracing overhead, batched serving forward), checks the
// acceptance predicates and the zero-alloc gate against the numbers of
// its own run, and writes the results to one JSON file.
//
// Usage:
//
//	benchjson                                  # 0.3s per benchmark per round, writes bench-ci.json
//	benchjson -benchtime 0.2s -out bench.json
//
// The set runs in `rounds` rounds, one `go test` each, so every
// benchmark is sampled at points spread across the run rather than
// back to back. The file records each metric's median over the rounds
// and every round's sample, sorted by (package, name), with no
// timestamps. The predicates relate two medians of the same run, so
// they need no stored baseline and mean the same on any host; the
// zero-alloc gate requires 0 allocs/op in every round. The run exits
// non-zero if go test, a predicate (a missing benchmark fails its
// predicate) or the gate fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const (
	// rounds is enough for a median that ignores two disturbed rounds,
	// and few enough for a CI job.
	rounds   = 5
	benchSet = "GEMM|TrainStepSteadyState|TrainEpoch|AllToAllBurst16|SparseBurst16|RunPipeline|TapOverhead|QuantizedInference|ServeBatch|ServeOpenLoop|ServeTrace|InferBatch"
	pkgs     = "./internal/tensor ./internal/noc ./internal/cmp ./internal/obs ./internal/serve ."
)

// Benchmark is one benchmark's results over the rounds.
type Benchmark struct {
	Package string               `json:"package"`
	Name    string               `json:"name"`    // without the -GOMAXPROCS suffix
	Metrics map[string]float64   `json:"metrics"` // unit → median over the rounds
	Samples map[string][]float64 `json:"samples"` // unit → one value per round, in round order
}

// File is the schema of the emitted JSON document.
type File struct {
	Bench      string      `json:"bench"`     // regex the run selected
	Benchtime  string      `json:"benchtime"` // per-benchmark budget per round
	Rounds     int         `json:"rounds"`
	GoVersion  string      `json:"go_version"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	benchtime := flag.String("benchtime", "0.3s", "go test -benchtime value, per benchmark per round")
	out := flag.String("out", "bench-ci.json", "output JSON path")
	flag.Parse()

	args := append([]string{"test", "-run", "^$", "-bench", benchSet,
		"-benchmem", "-benchtime", *benchtime}, strings.Fields(pkgs)...)
	var samples [][]Benchmark
	for r := 1; r <= rounds; r++ {
		log.Printf("round %d/%d: go %s", r, rounds, strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		os.Stdout.Write(raw)
		if err != nil {
			log.Fatalf("round %d: go test: %v", r, err)
		}
		samples = append(samples, parseBench(raw))
	}

	// A run that parsed nothing fails every predicate, naming each
	// missing benchmark.
	f := File{Bench: benchSet, Benchtime: *benchtime, Rounds: rounds,
		GoVersion: runtime.Version(), Benchmarks: merge(samples)}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(f.Benchmarks), *out)

	fmt.Printf("\npredicates over the medians of %d rounds:\n", rounds)
	med := medians(f.Benchmarks)
	failed := 0
	report := func(line string, err error) {
		if err != nil {
			failed++
			line = "FAIL " + err.Error()
		}
		fmt.Println(line)
	}
	for _, p := range predicates {
		report(p.check(med))
	}
	report("ok   zero-alloc gate: "+zeroAllocBenchmarks, checkZeroAllocs(f.Benchmarks, zeroAllocBenchmarks))
	if failed > 0 {
		log.Fatalf("%d of %d checks failed", failed, len(predicates)+1)
	}
}

// parseBench extracts benchmark lines from `go test -bench` output.
// Each result line is "BenchmarkName-P  N  v1 unit1  v2 unit2 ...";
// "pkg:" header lines track which package the following results
// belong to. The -P suffix go test adds when GOMAXPROCS > 1 is
// stripped, so names are the same on every host.
func parseBench(raw []byte) []Benchmark {
	var (
		res  []Benchmark
		pkg  string
		proc = fmt.Sprintf("-%d", runtime.GOMAXPROCS(0))
	)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, "Benchmark") || len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name := fields[0]
		if proc != "-1" {
			name = strings.TrimSuffix(name, proc)
		}
		b := Benchmark{Package: pkg, Name: name, Samples: map[string][]float64{}}
		ok := true
		for i := 2; i+1 < len(fields) && ok; i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			ok = err == nil
			b.Samples[fields[i+1]] = []float64{v}
		}
		if ok {
			res = append(res, b)
		}
	}
	return res
}

// merge folds the rounds' results into one Benchmark per (package,
// name), each unit's samples in round order and their median, sorted
// by (package, name).
func merge(rounds [][]Benchmark) []Benchmark {
	byKey := map[string]*Benchmark{}
	var keys []string
	for _, round := range rounds {
		for _, b := range round {
			k := b.Package + " " + b.Name
			m := byKey[k]
			if m == nil {
				m = &Benchmark{Package: b.Package, Name: b.Name, Samples: map[string][]float64{}}
				byKey[k] = m
				keys = append(keys, k)
			}
			for unit, vs := range b.Samples {
				m.Samples[unit] = append(m.Samples[unit], vs...)
			}
		}
	}
	sort.Strings(keys)
	res := make([]Benchmark, 0, len(keys))
	for _, k := range keys {
		m := byKey[k]
		m.Metrics = make(map[string]float64, len(m.Samples))
		for unit, vs := range m.Samples {
			m.Metrics[unit] = median(vs)
		}
		res = append(res, *m)
	}
	return res
}

// median returns the middle of vs, or the mean of the two middle
// values when len(vs) is even. vs is not modified.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric names one benchmark's value in one unit.
type metric struct{ bench, unit string }

// medians indexes the merged results' medians by metric.
func medians(benchmarks []Benchmark) map[metric]float64 {
	med := map[metric]float64{}
	for _, b := range benchmarks {
		for unit, v := range b.Metrics {
			med[metric{b.Name, unit}] = v
		}
	}
	return med
}

// A predicate is one acceptance check over two medians of the same run.
type predicate struct {
	name     string
	lhs, rhs metric
	rule     string // the bound, as a format of the lhs and rhs descriptions
	holds    func(lhs, rhs float64) bool
}

// predicates are the checks every run must pass, each at its original bound.
var predicates = []predicate{
	int16Speedup("AlexConv2_256x2400x729"),
	int16Speedup("AlexConv3_384x2304x169"),
	overhead("counter tap", "BenchmarkTapOverheadCounter"),
	overhead("histogram tap", "BenchmarkTapOverheadHistogram"),
	overhead("disabled request tracer", "BenchmarkServeTraceOverhead"),
	{name: "pipelined throughput beats sequential replay",
		lhs: metric{"BenchmarkRunPipelineAlexNet", "inf/Mcycle"}, rhs: metric{"BenchmarkRunPipelineDepth1AlexNet", "inf/Mcycle"},
		rule: "%s > %s", holds: func(l, r float64) bool { return l > r }},
	{name: "dynamic batching beats batch-1 serving",
		lhs: metric{"BenchmarkServeBatched", "qps"}, rhs: metric{"BenchmarkServeBatch1", "qps"},
		rule: "%s > %s", holds: func(l, r float64) bool { return l > r }},
	loneRequest("float32"),
	loneRequest("int16"),
}

// int16Speedup: the packed int16 GEMM is at least twice as fast as the
// packed float32 GEMM on one of CaffeNet's im2col shapes. Both sides
// come from one benchmark that alternates the two calls.
func int16Speedup(shape string) predicate {
	const bench = "BenchmarkGEMMInt16VsFloat32/"
	return predicate{name: "int16 GEMM ≥ 2× float32 on " + shape,
		lhs:  metric{bench + shape, "f32-ns/op"},
		rhs:  metric{bench + shape, "i16-ns/op"},
		rule: "%s ≥ 2 × %s", holds: func(l, r float64) bool { return l >= 2*r }}
}

// overhead: a hook costs at most 2% plus 1 ns of absolute jitter per
// operation over the same loop without it.
func overhead(what, bench string) predicate {
	return predicate{name: what + " overhead ≤ 2% + 1 ns",
		lhs:  metric{bench, "on-ns/op"},
		rhs:  metric{bench, "off-ns/op"},
		rule: "%s ≤ 1.02 × %s + 1", holds: func(l, r float64) bool { return l <= r*1.02+1 }}
}

// loneRequest: one served request costs at most half a full batch of
// eight, because its FC layers fill every vector lane of the
// output-lane kernel instead of one lane in eight.
func loneRequest(prec string) predicate {
	return predicate{name: "a lone " + prec + " request costs ≤ ½ a full batch",
		lhs:  metric{"BenchmarkInferBatch/" + prec + "/K=1", "ns/op"},
		rhs:  metric{"BenchmarkInferBatch/" + prec + "/K=8", "ns/op"},
		rule: "%s ≤ 0.5 × %s", holds: func(l, r float64) bool { return l <= 0.5*r }}
}

// check evaluates p over med and returns its report line, or an error
// naming the missing benchmark or both numbers of the failed bound.
func (p predicate) check(med map[metric]float64) (string, error) {
	var desc [2]string
	var val [2]float64
	for i, m := range [2]metric{p.lhs, p.rhs} {
		v, ok := med[m]
		if !ok {
			return "", fmt.Errorf("%s: %s reported no %s (renamed, or missing from the run?)", p.name, m.bench, m.unit)
		}
		val[i], desc[i] = v, fmt.Sprintf("%s %.6g %s", m.bench, v, m.unit)
	}
	got := fmt.Sprintf(p.rule, desc[0], desc[1])
	if !p.holds(val[0], val[1]) {
		return "", fmt.Errorf("%s: does not hold: %s", p.name, got)
	}
	return "ok   " + p.name + ": " + got, nil
}

// zeroAllocBenchmarks is the zero-alloc gate: the steady-state
// training step, the disabled request tracer, the NoC burst loops and
// the batched serving forward pass.
const zeroAllocBenchmarks = "TrainStepSteadyState|ServeTraceOverhead|AllToAllBurst16|SparseBurst16|InferBatch"

// checkZeroAllocs enforces the scratch-arena gate: every benchmark
// whose name matches re must have reported exactly 0 allocs/op in
// every round. Each top-level alternative of re must match at least
// one benchmark — a renamed benchmark must not silently disarm its
// part of the gate.
func checkZeroAllocs(benchmarks []Benchmark, re string) error {
	rx := regexp.MustCompile(re)
	var bad []string
	for _, alt := range topLevelAlternatives(re) {
		arx := regexp.MustCompile(alt)
		if !slices.ContainsFunc(benchmarks, func(b Benchmark) bool { return arx.MatchString(b.Name) }) {
			bad = append(bad, fmt.Sprintf("%q matched no benchmark (renamed, or missing from the run?)", alt))
		}
	}
	for _, b := range benchmarks {
		if !rx.MatchString(b.Name) {
			continue
		}
		allocs := b.Samples["allocs/op"]
		if len(allocs) == 0 {
			bad = append(bad, fmt.Sprintf("%s %s: no allocs/op metric (run with -benchmem)", b.Package, b.Name))
		}
		for r, a := range allocs {
			if a != 0 {
				bad = append(bad, fmt.Sprintf("%s %s: round %d: %v allocs/op, want 0", b.Package, b.Name, r+1, a))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("zero-alloc gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// topLevelAlternatives splits re at the '|' operators outside any
// group, character class or escape: "A|(B|C)|[|]" yields "A", "(B|C)"
// and "[|]".
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	classOpen := -1 // index just past an open '[' (and its '^'), or -1
	for i := 0; i < len(re); i++ {
		c := re[i]
		switch {
		case c == '\\':
			i++ // the escaped byte is literal
		case classOpen >= 0:
			if c == ']' && i > classOpen { // a leading ']' is literal
				classOpen = -1
			}
		case c == '[':
			classOpen = i + 1
			if classOpen < len(re) && re[classOpen] == '^' {
				classOpen++
			}
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[start:i])
			start = i + 1
		}
	}
	return append(alts, re[start:])
}
