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
