package benchpair

import "testing"

// OffOn splits b.N between the sides in alternating blocks, Off first,
// and reports a mean for each side.
func TestOffOnSplitsAndReports(t *testing.T) {
	var ops [2]int
	var n int
	res := testing.Benchmark(func(b *testing.B) {
		ops, n = [2]int{}, b.N
		OffOn(b, func(k int) { ops[0] += k }, func(k int) { ops[1] += k })
	})
	if ops[0]+ops[1] != n || ops[1] > ops[0] || ops[0]-ops[1] > block {
		t.Fatalf("b.N = %d split %d off / %d on, want alternating blocks of %d", n, ops[0], ops[1], block)
	}
	for _, unit := range []string{"off-ns/op", "on-ns/op"} {
		if _, ok := res.Extra[unit]; !ok {
			t.Errorf("no %s metric in %v", unit, res.Extra)
		}
	}
}

// Alternate calls each side once per iteration, the first side first,
// and reports a median for each.
func TestAlternateCallsEachSidePerIteration(t *testing.T) {
	var calls []int
	var n int
	res := testing.Benchmark(func(b *testing.B) {
		calls, n = calls[:0], b.N
		Alternate(b, [2]string{"a-ns/op", "b-ns/op"}, [2]func(){
			func() { calls = append(calls, 0) },
			func() { calls = append(calls, 1) },
		})
	})
	if len(calls) != 2*n {
		t.Fatalf("b.N = %d made %d calls, want %d", n, len(calls), 2*n)
	}
	for i, side := range calls {
		if side != i%2 {
			t.Fatalf("call %d ran side %d, want alternating sides starting with 0", i, side)
		}
	}
	for _, unit := range []string{"a-ns/op", "b-ns/op"} {
		if _, ok := res.Extra[unit]; !ok {
			t.Errorf("no %s metric in %v", unit, res.Extra)
		}
	}
}
