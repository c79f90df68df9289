package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if len(x.Shape) != 3 || x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Errorf("Shape = %v, want [2 3 4]", x.Shape)
	}
	x.Data[23] = 5
	x.Zero()
	if x.Data[23] != 0 {
		t.Error("Zero left an element set")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero dimension must panic")
		}
	}()
	New(2, 0, 3)
}

func TestFromSliceAndReshape(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(data, 2, 3)
	if len(x.Shape) != 2 || x.Shape[0] != 2 || x.Shape[1] != 3 {
		t.Errorf("Shape = %v, want [2 3]", x.Shape)
	}
	data[0] = 99
	if x.Data[0] != 99 {
		t.Error("FromSlice must share data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 1 {
		t.Error("Clone must copy data")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}    // 2x3
	b := []float32{7, 8, 9, 10, 11, 12} // 3x2
	c := make([]float32, 4)
	matMul(c, a, b, 2, 3, 2)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("A·B = %v, want %v", c, want)
		}
	}
}

func TestMatMulATBAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, k, n := 4, 5, 3
	at := make([]float32, k*m) // A stored transposed: k×m
	b := make([]float32, k*n)
	for i := range at {
		at[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	// Build A (m×k) from at.
	a := make([]float32, m*k)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			a[i*k+p] = at[p*m+i]
		}
	}
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	matMul(c1, a, b, m, k, n)
	atp := make([]float32, PackASize(m, k))
	bp := make([]float32, PackBSize(k, n))
	PackATRange(atp, at, m, k, 0, m)
	PackB(bp, b, k, n)
	MatMulPacked(c2, atp, bp, m, k, n, 0, m)
	if i, ok := bitsEqual(c2, c1); !ok {
		t.Fatalf("ATB mismatch at %d: %v vs %v", i, c2[i], c1[i])
	}
}

// TestMatMulABTAgainstMatMul checks the A·Bᵀ product of the packed FC
// kernel (FCForward with a zero bias, B packed by PackFCRange) against
// refMatMul with B transposed explicitly.
func TestMatMulABTAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 3, 4, 5
	a := make([]float32, m*k)
	bt := make([]float32, n*k) // B stored transposed: n×k
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bt {
		bt[i] = float32(rng.NormFloat64())
	}
	b := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			b[p*n+j] = bt[j*k+p]
		}
	}
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	refMatMul(c1, a, b, m, k, n)
	bp := make([]float32, PackFCSize(n, k))
	PackFCRange(bp, bt, n, k, 0, FCPanels(n))
	FCForward(c2, a, bp, make([]float32, n), m, k, n, 0, FCPanels(n))
	for i := range c1 {
		if math.Abs(float64(c1[i]-c2[i])) > 1e-4 {
			t.Fatalf("ABT mismatch at %d: %v vs %v", i, c1[i], c2[i])
		}
	}
}

func TestConvGeomInfer(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 28, InW: 28, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 0}.Infer()
	if g.OutH != 24 || g.OutW != 24 {
		t.Errorf("got %dx%d, want 24x24", g.OutH, g.OutW)
	}
	g2 := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 2, KW: 2, Stride: 2}.Infer()
	if g2.OutH != 14 || g2.OutW != 14 {
		t.Errorf("pool geom got %dx%d", g2.OutH, g2.OutW)
	}
	g3 := ConvGeom{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}.Infer()
	if g3.OutH != 32 || g3.OutW != 32 {
		t.Errorf("padded geom got %dx%d, want same", g3.OutH, g3.OutW)
	}
}

// Im2Col followed by matmul must agree with the direct reference conv.
func TestIm2ColConvMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []ConvGeom{
		{InC: 1, InH: 8, InW: 8, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 3, InH: 9, InW: 7, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 6, InW: 6, OutC: 3, KH: 5, KW: 5, Stride: 1, Pad: 2},
	} {
		g := cfg.Infer()
		input := make([]float32, g.InC*g.InH*g.InW)
		weights := make([]float32, g.OutC*g.InC*g.KH*g.KW)
		bias := make([]float32, g.OutC)
		for i := range input {
			input[i] = float32(rng.NormFloat64())
		}
		for i := range weights {
			weights[i] = float32(rng.NormFloat64())
		}
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		rows := g.InC * g.KH * g.KW
		cols := g.OutH * g.OutW
		col := make([]float32, rows*cols)
		Im2Col(col, input, g)
		out1 := make([]float32, g.OutC*cols)
		matMul(out1, weights, col, g.OutC, rows, cols)
		for oc := 0; oc < g.OutC; oc++ {
			for i := 0; i < cols; i++ {
				out1[oc*cols+i] += bias[oc]
			}
		}
		out2 := make([]float32, g.OutC*cols)
		refConv(out2, input, weights, bias, g)
		for i := range out1 {
			if math.Abs(float64(out1[i]-out2[i])) > 1e-3 {
				t.Fatalf("geom %+v: mismatch at %d: %v vs %v", cfg, i, out1[i], out2[i])
			}
		}
	}
}

// Col2Im must be the exact adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImIsAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ConvGeom{InC: 2, InH: 7, InW: 7, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 1}.Infer()
	nIn := g.InC * g.InH * g.InW
	nCol := g.InC * g.KH * g.KW * g.OutH * g.OutW
	x := make([]float32, nIn)
	y := make([]float32, nCol)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range y {
		y[i] = float32(rng.NormFloat64())
	}
	colX := make([]float32, nCol)
	Im2Col(colX, x, g)
	imY := make([]float32, nIn)
	Col2Im(imY, y, g)
	lhs, rhs := 0.0, 0.0
	for i := range colX {
		lhs += float64(colX[i]) * float64(y[i])
	}
	for i := range x {
		rhs += float64(x[i]) * float64(imY[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestMaxPoolSmall(t *testing.T) {
	// 1 channel, 4x4 input, 2x2 pool stride 2.
	input := []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}.Infer()
	out := make([]float32, 4)
	arg := make([]int32, 4)
	MaxPoolChannels(out, arg, input, g, 0, g.InC)
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MaxPoolChannels = %v, want %v", out, want)
		}
	}
	if input[arg[3]] != 16 {
		t.Errorf("argmax[3] points at %v", input[arg[3]])
	}
}

// Property: a global pool's output equals the input's maximum.
func TestQuickMaxPoolGlobal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ConvGeom{InC: 1, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1}.Infer()
		input := make([]float32, 25)
		maxv := float32(math.Inf(-1))
		for i := range input {
			input[i] = float32(rng.NormFloat64())
			if input[i] > maxv {
				maxv = input[i]
			}
		}
		out := make([]float32, 1)
		MaxPoolChannels(out, nil, input, g, 0, g.InC)
		return out[0] == maxv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: A·B distributes over addition in its first argument.
func TestQuickMatMulLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 3, 4, 2
		a1 := make([]float32, m*k)
		a2 := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a1 {
			a1[i] = float32(rng.NormFloat64())
			a2[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		sum := make([]float32, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		cs := make([]float32, m*n)
		matMul(c1, a1, b, m, k, n)
		matMul(c2, a2, b, m, k, n)
		matMul(cs, sum, b, m, k, n)
		for i := range cs {
			if math.Abs(float64(cs[i]-(c1[i]+c2[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 16, InH: 28, InW: 28, OutC: 16, KH: 5, KW: 5, Stride: 1}.Infer()
	input := make([]float32, g.InC*g.InH*g.InW)
	col := make([]float32, g.InC*g.KH*g.KW*g.OutH*g.OutW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(col, input, g)
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestRandNDeterministic(t *testing.T) {
	a := New(16)
	b := New(16)
	a.RandN(rand.New(rand.NewSource(3)), 1)
	b.RandN(rand.New(rand.NewSource(3)), 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must give same noise")
		}
	}
}
