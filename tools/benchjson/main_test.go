package main

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// gatedBenchmarks returns one zero-alloc result per top-level
// alternative of the default gate, as merged from five rounds.
func gatedBenchmarks() []Benchmark {
	var bs []Benchmark
	for _, name := range strings.Split(zeroAllocBenchmarks, "|") {
		bs = append(bs, Benchmark{Name: "Benchmark" + name,
			Samples: map[string][]float64{"ns/op": {100, 100, 100, 100, 100}, "allocs/op": {0, 0, 0, 0, 0}}})
	}
	return bs
}

func TestZeroAllocGatePasses(t *testing.T) {
	if err := checkZeroAllocs(gatedBenchmarks(), zeroAllocBenchmarks); err != nil {
		t.Fatal(err)
	}
}

// A renamed benchmark leaves the other alternatives matching; the gate
// must still fail, naming the alternative that lost its benchmark.
func TestZeroAllocGateRenamedAlternative(t *testing.T) {
	bs := gatedBenchmarks()
	for i := range bs {
		if strings.Contains(bs[i].Name, "SparseBurst16") {
			bs[i].Name = "BenchmarkSparseMeshBurst"
		}
	}
	err := checkZeroAllocs(bs, zeroAllocBenchmarks)
	if err == nil || !strings.Contains(err.Error(), `"SparseBurst16" matched no benchmark`) {
		t.Fatalf("renamed SparseBurst16: err = %v", err)
	}
}

func TestZeroAllocGateAllocating(t *testing.T) {
	bs := gatedBenchmarks()
	bs[0].Samples["allocs/op"] = []float64{3, 3, 3, 3, 3}
	err := checkZeroAllocs(bs, zeroAllocBenchmarks)
	if err == nil || !strings.Contains(err.Error(), "3 allocs/op, want 0") {
		t.Fatalf("allocating benchmark: err = %v", err)
	}
	delete(bs[0].Samples, "allocs/op")
	if err := checkZeroAllocs(bs, zeroAllocBenchmarks); err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs/op: err = %v", err)
	}
}

// One allocating round fails the gate even though the median is 0.
func TestZeroAllocGateOneRoundAllocates(t *testing.T) {
	bs := gatedBenchmarks()
	bs[1].Samples["allocs/op"][3] = 1
	err := checkZeroAllocs(bs, zeroAllocBenchmarks)
	if err == nil || !strings.Contains(err.Error(), bs[1].Name+": round 4: 1 allocs/op, want 0") {
		t.Fatalf("one allocating round: err = %v", err)
	}
}

func TestTopLevelAlternatives(t *testing.T) {
	for re, want := range map[string][]string{
		"A":             {"A"},
		"A|B":           {"A", "B"},
		"A|(B|C)|D":     {"A", "(B|C)", "D"},
		`A\|B|C`:        {`A\|B`, "C"},
		"[|]|[]|]|E":    {"[|]", "[]|]", "E"},
		"[^|x]|(?:F|G)": {"[^|x]", "(?:F|G)"},
	} {
		regexp.MustCompile(re)
		if got := topLevelAlternatives(re); !reflect.DeepEqual(got, want) {
			t.Errorf("topLevelAlternatives(%q) = %q, want %q", re, got, want)
		}
	}
}

// predicateBounds gives each predicate's (lhs, rhs) medians at its
// bound, where it must hold, and just past it, where it must fail. For
// the strict "beats" predicates the bound itself is the first failing
// value, so "at" is the smallest margin above it.
var predicateBounds = map[string]struct{ at, past [2]float64 }{
	"int16 GEMM ≥ 2× float32 on AlexConv2_256x2400x729": {at: [2]float64{2000, 1000}, past: [2]float64{1999.5, 1000}},
	"int16 GEMM ≥ 2× float32 on AlexConv3_384x2304x169": {at: [2]float64{2000, 1000}, past: [2]float64{1999.5, 1000}},
	"counter tap overhead ≤ 2% + 1 ns":                  {at: [2]float64{103, 100}, past: [2]float64{103.01, 100}},
	"histogram tap overhead ≤ 2% + 1 ns":                {at: [2]float64{103, 100}, past: [2]float64{103.01, 100}},
	"disabled request tracer overhead ≤ 2% + 1 ns":      {at: [2]float64{103, 100}, past: [2]float64{103.01, 100}},
	"pipelined throughput beats sequential replay":      {at: [2]float64{2.679, 2.678}, past: [2]float64{2.678, 2.678}},
	"dynamic batching beats batch-1 serving":            {at: [2]float64{1201, 1200}, past: [2]float64{1200, 1200}},
	"a lone float32 request costs ≤ ½ a full batch":     {at: [2]float64{500, 1000}, past: [2]float64{500.5, 1000}},
	"a lone int16 request costs ≤ ½ a full batch":       {at: [2]float64{500, 1000}, past: [2]float64{500.5, 1000}},
}

func TestPredicateBounds(t *testing.T) {
	if len(predicateBounds) != len(predicates) {
		t.Fatalf("%d bound cases for %d predicates", len(predicateBounds), len(predicates))
	}
	for _, p := range predicates {
		c, ok := predicateBounds[p.name]
		if !ok {
			t.Errorf("predicate %q has no bound case", p.name)
			continue
		}
		at := map[metric]float64{p.lhs: c.at[0], p.rhs: c.at[1]}
		if line, err := p.check(at); err != nil || !strings.HasPrefix(line, "ok") {
			t.Errorf("%s at its bound %v: line %q, err %v", p.name, c.at, line, err)
		}
		past := map[metric]float64{p.lhs: c.past[0], p.rhs: c.past[1]}
		_, err := p.check(past)
		if err == nil {
			t.Errorf("%s just past its bound %v: holds", p.name, c.past)
			continue
		}
		for _, v := range c.past {
			if s := fmt.Sprintf("%.6g", v); !strings.Contains(err.Error(), s) {
				t.Errorf("%s past its bound: error %q does not name %s", p.name, err, s)
			}
		}
	}
}

// A predicate whose benchmark is missing from the run fails, naming it.
func TestPredicateMissingBenchmark(t *testing.T) {
	for _, p := range predicates {
		for _, missing := range []metric{p.lhs, p.rhs} {
			med := map[metric]float64{p.lhs: 2, p.rhs: 1}
			delete(med, missing)
			_, err := p.check(med)
			if err == nil || !strings.Contains(err.Error(), missing.bench+" reported no "+missing.unit) {
				t.Errorf("%s without %v: err = %v", p.name, missing, err)
			}
		}
	}
}

// merge keeps every round's sample in round order and records their
// median, the middle pair's mean for an even count.
func TestMergeMedians(t *testing.T) {
	for _, c := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{30, 10, 20}, 20},
		{[]float64{12, 11, 15, 13, 14}, 13},
		{[]float64{40, 10, 30, 20}, 25},
		{[]float64{7, 7}, 7},
	} {
		var rounds [][]Benchmark
		for _, v := range c.samples {
			rounds = append(rounds, []Benchmark{{Package: "p", Name: "BenchmarkX",
				Samples: map[string][]float64{"ns/op": {v}}}})
		}
		got := merge(rounds)
		if len(got) != 1 || got[0].Metrics["ns/op"] != c.want ||
			!reflect.DeepEqual(got[0].Samples["ns/op"], c.samples) {
			t.Errorf("merge of %v rounds = %+v, want median %v", c.samples, got, c.want)
		}
	}
}

func TestParseBenchStripsProcSuffix(t *testing.T) {
	suffix := ""
	if p := runtime.GOMAXPROCS(0); p > 1 {
		suffix = fmt.Sprintf("-%d", p)
	}
	raw := "goos: linux\npkg: learn2scale/internal/obs\n" +
		"BenchmarkTapOverheadCounter" + suffix + "  1000  10.50 ns/op  10.10 off-ns/op  10.90 on-ns/op  0 B/op  0 allocs/op\n" +
		"PASS\n"
	got := parseBench([]byte(raw))
	want := []Benchmark{{Package: "learn2scale/internal/obs", Name: "BenchmarkTapOverheadCounter",
		Samples: map[string][]float64{"ns/op": {10.5}, "off-ns/op": {10.1}, "on-ns/op": {10.9}, "B/op": {0}, "allocs/op": {0}}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench = %+v, want %+v", got, want)
	}
}
