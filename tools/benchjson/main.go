// Command benchjson runs the repo's performance benchmarks — GEMM
// kernels (float32 and packed int16), the steady-state training step,
// a training epoch, the dense/sparse NoC bursts, the pipelined AlexNet
// inference (whose inf/Mcycle metric carries the pipelined-vs-replay
// throughput comparison), the float32-vs-int16 quantized inference
// pair, the serving-layer load benchmarks (whose qps metric carries
// the batched-vs-batch-1 capacity comparison), the request-tracing
// overhead pair (whose Base/Nil ns/op carry the disabled-tracer
// ≤2%+1ns bound), and the batched serving forward pass (K = 1 and 8
// at each precision) — through `go test -bench` and writes the parsed
// results as one machine-readable JSON file (bench-ci.json by default;
// it is gitignored, so a run never rewrites a committed BENCH_*.json).
// CI's bench-smoke job uploads the file as an artifact, and the
// zero-alloc gate (-require-zero-allocs, on by default) fails the run
// if the steady-state training step, the disabled tracer, the NoC
// burst loop or the batched forward ever allocates.
//
// Usage:
//
//	benchjson                                   # bench + gate + write bench-ci.json
//	benchjson -benchtime 0.2s -out bench.json
//	benchjson -bench GEMM -require-zero-allocs ''  # a subset, gate off
//	benchjson -compare BENCH_PR9.json BENCH_PR10.json -max-regress 10
//
// Every top-level alternative of the -require-zero-allocs regex must
// match at least one benchmark, so renaming a gated benchmark fails
// the run instead of silently dropping it from the gate.
//
// -compare runs no benchmarks: it diffs two result files and exits
// non-zero if any benchmark present in both regressed — ns/op and
// allocs/op each by at most -max-regress percent (allocs get two
// counts of absolute slack, since short-benchtime runs fold amortized
// fixture allocations into allocs/op) — so the bench trajectory across
// PRs is a gate, not just an artifact.
//
// The JSON is deterministic for a given set of benchmark results:
// entries are sorted by (package, name) and no timestamps are
// recorded (ns/op naturally varies run to run).
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
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit → value, e.g. "ns/op", "allocs/op"
}

// File is the schema of the emitted JSON document.
type File struct {
	Bench      string      `json:"bench"`     // regex the run selected
	Benchtime  string      `json:"benchtime"` // per-benchmark budget
	GoVersion  string      `json:"go_version"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	benchRe := flag.String("bench", "GEMM|TrainStepSteadyState|TrainEpoch|AllToAllBurst16|SparseBurst16|RunPipeline|TapOverhead|QuantizedInference|ServeBatch|ServeOpenLoop|ServeTrace|InferBatch",
		"benchmark selection regex passed to go test -bench")
	benchtime := flag.String("benchtime", "0.3s", "go test -benchtime value")
	out := flag.String("out", "bench-ci.json", "output JSON path")
	pkgs := flag.String("pkgs", "./internal/tensor,./internal/noc,./internal/cmp,./internal/obs,./internal/serve,.",
		"comma-separated packages to benchmark")
	requireZero := flag.String("require-zero-allocs", zeroAllocBenchmarks,
		"regex of benchmark names that must report 0 allocs/op, each top-level alternative matching at least one; exits non-zero on violation ('' disables)")
	compare := flag.Bool("compare", false, "compare two result files (old new) instead of benchmarking")
	maxRegress := flag.Float64("max-regress", 10, "with -compare: max tolerated ns/op regression in percent")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchjson -compare [-max-regress N] old.json new.json")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), *maxRegress); err != nil {
			log.Fatal(err)
		}
		return
	}

	args := []string{"test", "-run", "^$", "-bench", *benchRe,
		"-benchmem", "-benchtime", *benchtime}
	args = append(args, strings.Split(*pkgs, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(raw)
		log.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	os.Stdout.Write(raw)

	f := File{Bench: *benchRe, Benchtime: *benchtime, GoVersion: goVersion()}
	f.Benchmarks = parseBench(raw)
	if len(f.Benchmarks) == 0 {
		log.Fatalf("no benchmark results parsed from go test output")
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		if f.Benchmarks[i].Package != f.Benchmarks[j].Package {
			return f.Benchmarks[i].Package < f.Benchmarks[j].Package
		}
		return f.Benchmarks[i].Name < f.Benchmarks[j].Name
	})

	if *requireZero != "" {
		if err := checkZeroAllocs(f.Benchmarks, *requireZero); err != nil {
			log.Fatal(err)
		}
	}

	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(f.Benchmarks), *out)
}

// parseBench extracts benchmark lines from `go test -bench` output.
// Each result line is "BenchmarkName-P  N  v1 unit1  v2 unit2 ...";
// "pkg:" header lines track which package the following results
// belong to.
func parseBench(raw []byte) []Benchmark {
	var (
		res []Benchmark
		pkg string
	)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Package: pkg, Name: fields[0], Iterations: iters,
			Metrics: make(map[string]float64, (len(fields)-2)/2)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			res = append(res, b)
		}
	}
	return res
}

// zeroAllocBenchmarks is the default zero-alloc gate: the steady-state
// training step, the disabled request tracer, the NoC burst loops and
// the batched serving forward pass.
const zeroAllocBenchmarks = "TrainStepSteadyState|ServeTraceOverhead|AllToAllBurst16|SparseBurst16|InferBatch"

// checkZeroAllocs enforces the scratch-arena gate: every benchmark
// whose name matches re must have reported exactly 0 allocs/op. Each
// top-level alternative of re must match at least one benchmark — a
// renamed benchmark must not silently disarm its part of the gate.
func checkZeroAllocs(benchmarks []Benchmark, re string) error {
	rx, err := regexp.Compile(re)
	if err != nil {
		return fmt.Errorf("bad -require-zero-allocs regex: %v", err)
	}
	var bad []string
	for _, alt := range topLevelAlternatives(re) {
		arx, err := regexp.Compile(alt)
		if err != nil {
			return fmt.Errorf("bad -require-zero-allocs alternative %q: %v", alt, err)
		}
		matched := false
		for _, b := range benchmarks {
			if arx.MatchString(b.Name) {
				matched = true
				break
			}
		}
		if !matched {
			bad = append(bad, fmt.Sprintf("%q matched no benchmark (renamed, or not selected by -bench?)", alt))
		}
	}
	for _, b := range benchmarks {
		if !rx.MatchString(b.Name) {
			continue
		}
		allocs, ok := b.Metrics["allocs/op"]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s %s: no allocs/op metric (run with -benchmem)", b.Package, b.Name))
		} else if allocs != 0 {
			bad = append(bad, fmt.Sprintf("%s %s: %v allocs/op, want 0", b.Package, b.Name, allocs))
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

// compareFiles diffs two benchmark result files. For every benchmark
// present in both (keyed by package + name), ns/op must not grow by
// more than maxRegress percent — the slack needed on shared CI
// runners — and allocs/op by more than the same percentage plus two
// allocations of absolute slack: per-op allocation counts are
// deterministic in steady state, but short benchtimes fold one-time
// fixture allocations (amortized over the iteration count) into the
// per-op figure. Benchmarks present in only one file are reported but
// not fatal: PRs legitimately add and retire benchmarks.
func compareFiles(oldPath, newPath string, maxRegress float64) error {
	load := func(path string) (map[string]Benchmark, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f File
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		m := make(map[string]Benchmark, len(f.Benchmarks))
		for _, b := range f.Benchmarks {
			m[b.Package+" "+b.Name] = b
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("%s: no benchmarks", path)
		}
		return m, nil
	}
	oldB, err := load(oldPath)
	if err != nil {
		return err
	}
	newB, err := load(newPath)
	if err != nil {
		return err
	}

	keys := make([]string, 0, len(oldB))
	for k := range oldB {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var bad []string
	common := 0
	for _, k := range keys {
		ob := oldB[k]
		nb, ok := newB[k]
		if !ok {
			fmt.Printf("  %-60s retired\n", k)
			continue
		}
		common++
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		delta := 0.0
		if oldNs > 0 {
			delta = (newNs - oldNs) / oldNs * 100
		}
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: ns/op %.0f → %.0f (%+.1f%%, max %+.1f%%)",
				k, oldNs, newNs, delta, maxRegress))
		}
		oldAllocs, newAllocs := ob.Metrics["allocs/op"], nb.Metrics["allocs/op"]
		if limit := oldAllocs*(1+maxRegress/100) + 2; newAllocs > limit {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s: allocs/op %v → %v (limit %.1f)",
				k, oldAllocs, newAllocs, limit))
		}
		fmt.Printf("  %-60s ns/op %12.0f → %12.0f (%+6.1f%%)  allocs %4.0f → %4.0f  %s\n",
			k, oldNs, newNs, delta, oldAllocs, newAllocs, status)
	}
	for k := range newB {
		if _, ok := oldB[k]; !ok {
			fmt.Printf("  %-60s new\n", k)
		}
	}
	if common == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Printf("bench gate passed: %d common benchmarks within %+.1f%% on ns/op and allocs/op\n",
		common, maxRegress)
	return nil
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
