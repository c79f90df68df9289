// Package benchpair measures two sides of a comparison inside one
// benchmark: the cost of a hook as an Off/On pair, or two
// implementations of one long operation. Two separate benchmarks run
// seconds apart, on whatever processor frequency state each one meets,
// and their ns/op differ by more than the few percent an overhead
// bound allows even on unchanged code. Alternating the sides inside
// one b.N loop puts both under the same conditions, so their ratio
// resolves a bound of a few percent plus a nanosecond.
package benchpair

import (
	"sort"
	"testing"
	"time"
)

// block is the number of operations per Off or On block: long enough
// that the two clock reads around it cost under 0.01 ns per operation,
// short enough that a 0.2 s run alternates thousands of times.
const block = 1 << 12

// OffOn runs b.N operations in alternating blocks, off(n) then on(n),
// each running n operations of its side, and reports each side's
// median per-operation time over its blocks as the off-ns/op and
// on-ns/op metrics. A median, not a mean: when the scheduler preempts
// the benchmark, the whole time slice lands in one block of one side,
// and on a shared host that alone moves a side's mean by more than the
// bound being measured. Any switching a side needs (attaching a hook,
// say) belongs at the start of its function, where one call per block
// amortizes it.
func OffOn(b *testing.B, off, on func(n int)) {
	perBlock := [2][]float64{
		make([]float64, 0, b.N/(2*block)+1),
		make([]float64, 0, b.N/(2*block)+1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done, side := 0, 0; done < b.N; side ^= 1 {
		n := min(block, b.N-done)
		t0 := time.Now()
		if side == 0 {
			off(n)
		} else {
			on(n)
		}
		perBlock[side] = append(perBlock[side], float64(time.Since(t0).Nanoseconds())/float64(n))
		done += n
	}
	b.StopTimer()
	reportMedians(b, [2]string{"off-ns/op", "on-ns/op"}, perBlock)
}

// Alternate runs b.N iterations of one call of each side, sides[0]
// first, timing every call, and reports each side's median time per
// call as the metric named by its unit. One call per turn suits
// operations of a millisecond or more, where the two clock reads
// around a call cost nothing and a preempted call spoils one sample of
// one side, not a ratio of two benchmarks run seconds apart.
func Alternate(b *testing.B, units [2]string, sides [2]func()) {
	perCall := [2][]float64{make([]float64, 0, b.N), make([]float64, 0, b.N)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for side, f := range sides {
			t0 := time.Now()
			f()
			perCall[side] = append(perCall[side], float64(time.Since(t0).Nanoseconds()))
		}
	}
	b.StopTimer()
	reportMedians(b, units, perCall)
}

// reportMedians reports the median of each side's samples under its
// unit; a side without samples reports nothing.
func reportMedians(b *testing.B, units [2]string, samples [2][]float64) {
	for side, unit := range units {
		if s := samples[side]; len(s) > 0 {
			sort.Float64s(s)
			b.ReportMetric(s[len(s)/2], unit)
		}
	}
}
