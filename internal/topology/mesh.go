// Package topology models the 2D-mesh on-chip network geometry used by
// the CMP architecture: node coordinates, dimension-ordered (XY)
// routing, and the inter-core hop-distance matrices that the paper uses
// as sparsity-strength masks (Fig. 6(a)).
package topology

import "fmt"

// Coord is a node position in the mesh, x growing east and y south.
type Coord struct {
	X, Y int
}

// Mesh is a W×H 2D mesh of nodes numbered row-major: node id
// y*W + x.
type Mesh struct {
	W, H int
}

// NewMesh creates a W×H mesh. Both dimensions must be positive.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	return Mesh{W: w, H: h}
}

// ForCores returns the most nearly square mesh holding exactly n nodes,
// preferring wider-than-tall (e.g. 8 → 4×2, 16 → 4×4, 32 → 8×4).
// It panics if n is not a product of two positive integers (always
// satisfiable; 1×n is the fallback for primes).
func ForCores(n int) Mesh {
	if n <= 0 {
		panic("topology: ForCores needs a positive core count")
	}
	bestW, bestH := n, 1
	for h := 1; h*h <= n; h++ {
		if n%h == 0 {
			bestW, bestH = n/h, h
		}
	}
	return Mesh{W: bestW, H: bestH}
}

// Nodes returns the node count.
func (m Mesh) Nodes() int { return m.W * m.H }

// Coord returns the coordinates of node id.
func (m Mesh) Coord(id int) Coord {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("topology: node %d out of range for %dx%d mesh", id, m.W, m.H))
	}
	return Coord{X: id % m.W, Y: id / m.W}
}

// ID returns the node id at coordinate c.
func (m Mesh) ID(c Coord) int {
	if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
		panic(fmt.Sprintf("topology: coord %+v out of range for %dx%d mesh", c, m.W, m.H))
	}
	return c.Y*m.W + c.X
}

// HopDist returns the Manhattan hop count between nodes a and b — the
// path length of dimension-ordered routing (the "distance" of the
// paper's Fig. 6(a); the paper calls it Hamming distance).
func (m Mesh) HopDist(a, b int) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// XYRoute returns the node sequence (inclusive of src and dst) that a
// packet follows under dimension-ordered routing: first along X, then
// along Y.
func (m Mesh) XYRoute(src, dst int) []int {
	cs, cd := m.Coord(src), m.Coord(dst)
	path := []int{src}
	cur := cs
	for cur.X != cd.X {
		if cur.X < cd.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, m.ID(cur))
	}
	for cur.Y != cd.Y {
		if cur.Y < cd.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, m.ID(cur))
	}
	return path
}

// DistanceMatrix returns the full n×n hop-distance matrix, D[i][j] =
// HopDist(i, j). This is the factor mask the paper feeds into
// communication-aware sparsified training.
func (m Mesh) DistanceMatrix() [][]int {
	n := m.Nodes()
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = m.HopDist(i, j)
		}
	}
	return d
}

// Diameter returns the longest shortest-path hop count in the mesh.
func (m Mesh) Diameter() int { return m.W - 1 + m.H - 1 }
