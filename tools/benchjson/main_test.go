package main

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// gatedBenchmarks returns one zero-alloc result per top-level
// alternative of the default gate, named the way go test prints them.
func gatedBenchmarks() []Benchmark {
	var bs []Benchmark
	for _, name := range strings.Split(zeroAllocBenchmarks, "|") {
		bs = append(bs, Benchmark{Name: "Benchmark" + name + "-2",
			Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}})
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
			bs[i].Name = "BenchmarkSparseMeshBurst-2"
		}
	}
	err := checkZeroAllocs(bs, zeroAllocBenchmarks)
	if err == nil || !strings.Contains(err.Error(), `"SparseBurst16" matched no benchmark`) {
		t.Fatalf("renamed SparseBurst16: err = %v", err)
	}
}

func TestZeroAllocGateAllocating(t *testing.T) {
	bs := gatedBenchmarks()
	bs[0].Metrics["allocs/op"] = 3
	err := checkZeroAllocs(bs, zeroAllocBenchmarks)
	if err == nil || !strings.Contains(err.Error(), "3 allocs/op, want 0") {
		t.Fatalf("allocating benchmark: err = %v", err)
	}
	delete(bs[0].Metrics, "allocs/op")
	if err := checkZeroAllocs(bs, zeroAllocBenchmarks); err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs/op: err = %v", err)
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
