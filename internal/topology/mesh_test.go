package topology

import (
	"testing"
	"testing/quick"
)

func TestForCores(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1},
		{4, 2, 2},
		{8, 4, 2},
		{16, 4, 4},
		{32, 8, 4},
		{64, 8, 8},
		{7, 7, 1}, // prime falls back to 1×n
	}
	for _, c := range cases {
		m := ForCores(c.n)
		if m.W != c.w || m.H != c.h {
			t.Errorf("ForCores(%d) = %dx%d, want %dx%d", c.n, m.W, m.H, c.w, c.h)
		}
		if m.Nodes() != c.n {
			t.Errorf("ForCores(%d).Nodes() = %d", c.n, m.Nodes())
		}
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(4, 4)
	for id := 0; id < 16; id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Errorf("round trip %d -> %d", id, got)
		}
	}
	if c := m.Coord(6); c.X != 2 || c.Y != 1 {
		t.Errorf("Coord(6) = %+v, want (2,1)", c)
	}
}

func TestHopDistMatchesPaperFig6a(t *testing.T) {
	// 16-core 4×4 mesh, distances of node 0 to the first four nodes
	// are 0,1,2,3 (first row) per Fig. 6(a).
	m := NewMesh(4, 4)
	for j := 0; j < 4; j++ {
		if d := m.HopDist(0, j); d != j {
			t.Errorf("HopDist(0,%d) = %d, want %d", j, d, j)
		}
	}
	if d := m.HopDist(0, 15); d != 6 {
		t.Errorf("corner-to-corner = %d, want 6", d)
	}
	if d := m.HopDist(3, 2); d != 1 {
		t.Errorf("adjacent = %d, want 1 (paper: one hop from core3 to core2)", d)
	}
}

func TestXYRouteProperties(t *testing.T) {
	m := NewMesh(4, 4)
	path := m.XYRoute(0, 15)
	if len(path) != 7 { // 6 hops + source
		t.Fatalf("path length %d, want 7", len(path))
	}
	// X-first: the first moves change only X.
	if path[1] != 1 || path[2] != 2 || path[3] != 3 {
		t.Errorf("XY route should go east first: %v", path)
	}
	if path[len(path)-1] != 15 {
		t.Errorf("route must end at destination")
	}
}

func TestXYRouteSelf(t *testing.T) {
	m := NewMesh(3, 3)
	path := m.XYRoute(4, 4)
	if len(path) != 1 || path[0] != 4 {
		t.Errorf("self route = %v", path)
	}
}

func TestDistanceMatrixSymmetricZeroDiag(t *testing.T) {
	m := NewMesh(4, 2)
	d := m.DistanceMatrix()
	n := m.Nodes()
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Errorf("D[%d][%d] = %d", i, i, d[i][i])
		}
		for j := 0; j < n; j++ {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiameterAndBisection(t *testing.T) {
	if d := NewMesh(4, 4).Diameter(); d != 6 {
		t.Errorf("4x4 diameter = %d, want 6", d)
	}
}

// Property: route length equals hop distance + 1, every step is to a
// mesh neighbor, and the route is minimal.
func TestQuickRouteConsistency(t *testing.T) {
	m := NewMesh(5, 3)
	f := func(a, b uint8) bool {
		src := int(a) % m.Nodes()
		dst := int(b) % m.Nodes()
		path := m.XYRoute(src, dst)
		if len(path) != m.HopDist(src, dst)+1 {
			return false
		}
		for i := 1; i < len(path); i++ {
			if m.HopDist(path[i-1], path[i]) != 1 {
				return false
			}
		}
		return path[0] == src && path[len(path)-1] == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality holds for hop distance.
func TestQuickTriangleInequality(t *testing.T) {
	m := NewMesh(4, 4)
	f := func(a, b, c uint8) bool {
		i, j, k := int(a)%16, int(b)%16, int(c)%16
		return m.HopDist(i, k) <= m.HopDist(i, j)+m.HopDist(j, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
