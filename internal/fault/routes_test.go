package fault

import (
	"testing"

	"learn2scale/internal/topology"
)

// checkRoutes verifies every up*/down* invariant over all (src, dst)
// pairs of the routing function: reachability must equal undirected
// connectivity of the surviving graph, and every path must walk live
// links between alive routers, never move up after moving down, and
// never revisit a (node, downPhase) state (the termination guarantee
// deadlock-freedom rests on). Shared with FuzzFaultedRoute.
func checkRoutes(t testing.TB, m topology.Mesh, r *Routes) {
	n := m.Nodes()
	comp := components(m, r)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			connected := r.alive[src] && r.alive[dst] && comp[src] == comp[dst]
			if src == dst {
				if got := r.Reachable(src, dst); got != r.alive[src] {
					t.Fatalf("Reachable(%d, %d) = %v with alive=%v", src, dst, got, r.alive[src])
				}
				continue
			}
			if got := r.Reachable(src, dst); got != connected {
				t.Fatalf("Reachable(%d, %d) = %v, undirected connectivity says %v",
					src, dst, got, connected)
			}
			if !connected {
				if _, ok := r.Path(src, dst); ok {
					t.Fatalf("Path(%d, %d) exists but nodes are disconnected", src, dst)
				}
				continue
			}
			walkPath(t, m, r, src, dst)
		}
	}
}

// walkPath follows the next-hop tables from src to dst, checking each
// hop's legality. It bounds the walk at 2n states — the (node, phase)
// state space — so a routing cycle fails fast instead of hanging.
func walkPath(t testing.TB, m topology.Mesh, r *Routes, src, dst int) {
	n := m.Nodes()
	seen := make(map[[2]int]bool, 2*n)
	cur, down := src, false
	for steps := 0; cur != dst; steps++ {
		if steps > 2*n {
			t.Fatalf("path %d→%d did not terminate within %d hops", src, dst, 2*n)
		}
		state := [2]int{cur, b2i(down)}
		if seen[state] {
			t.Fatalf("path %d→%d revisits node %d in phase %d", src, dst, cur, b2i(down))
		}
		seen[state] = true
		d, isDown, ok := r.NextDir(cur, dst, down)
		if !ok {
			t.Fatalf("path %d→%d stuck at node %d phase %d", src, dst, cur, b2i(down))
		}
		if !r.live[cur][d] {
			t.Fatalf("path %d→%d crosses dead link at node %d dir %v", src, dst, cur, d)
		}
		next := Neighbor(m, cur, d)
		if next < 0 || !r.alive[next] {
			t.Fatalf("path %d→%d enters dead router from node %d dir %v", src, dst, cur, d)
		}
		up := r.Up(cur, next)
		if down && up {
			t.Fatalf("path %d→%d moves up at node %d after moving down", src, dst, cur)
		}
		if isDown != !up {
			t.Fatalf("path %d→%d: NextDir says isDown=%v but orientation says up=%v",
				src, dst, isDown, up)
		}
		if isDown {
			down = true
		}
		cur = next
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// components labels the connected components of the surviving
// undirected graph (dead routers get -1), independently of the routing
// tables under test.
func components(m topology.Mesh, r *Routes) []int {
	n := m.Nodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if !r.alive[s] || comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := Dir(0); d < numDirs; d++ {
				if !r.live[u][d] {
					continue
				}
				if v := Neighbor(m, u, d); comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp
}

// mustRoutes builds the routing tables for cfg on m and fails the test
// on an invalid config.
func mustRoutes(t testing.TB, m topology.Mesh, cfg *Config) *Routes {
	t.Helper()
	r, err := NewRoutes(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoutesFaultFreeMesh(t *testing.T) {
	m := topology.NewMesh(4, 4)
	r := mustRoutes(t, m, nil)
	checkRoutes(t, m, r)
	// Fault-free shortest paths: up*/down* distance equals hop distance
	// on a mesh rooted at node 0? Not in general — but the path length
	// must never be absurd. Check the bound |path| ≤ 2·diameter+1.
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			p, ok := r.Path(src, dst)
			if !ok {
				t.Fatalf("fault-free mesh: %d cannot reach %d", src, dst)
			}
			if len(p)-1 > 2*(m.W+m.H) {
				t.Errorf("path %d→%d has %d hops on a 4x4 mesh", src, dst, len(p)-1)
			}
		}
	}
}

func TestRoutesDeadLink(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cfg := &Config{DeadLinks: []Link{{A: 5, B: 6}, {A: 1, B: 2}}}
	r, err := NewRoutes(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, m, r)
	// Both cut links sit on the same column boundary, but rows 2-3
	// still connect the halves: everything stays reachable.
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if !r.Reachable(src, dst) {
				t.Errorf("%d→%d unreachable despite a connected survivor graph", src, dst)
			}
		}
	}
	// The dead link must never be crossed.
	p, _ := r.Path(5, 6)
	for i := 0; i+1 < len(p); i++ {
		if LinkBetween(p[i], p[i+1]) == (Link{A: 5, B: 6}) {
			t.Errorf("path 5→6 crosses the dead link: %v", p)
		}
	}
}

func TestRoutesDeadRouter(t *testing.T) {
	m := topology.NewMesh(4, 4)
	r := mustRoutes(t, m, &Config{DeadRouters: []int{5}})
	checkRoutes(t, m, r)
	for other := 0; other < m.Nodes(); other++ {
		if other == 5 {
			continue
		}
		if r.Reachable(5, other) || r.Reachable(other, 5) {
			t.Errorf("dead router 5 still reachable to/from %d", other)
		}
	}
}

func TestRoutesDisconnection(t *testing.T) {
	// Cut the full column boundary between x=0 and x=1 on a 2-wide
	// mesh: the two columns become separate components.
	m := topology.NewMesh(2, 3)
	cfg := &Config{DeadLinks: []Link{{A: 0, B: 1}, {A: 2, B: 3}, {A: 4, B: 5}}}
	r := mustRoutes(t, m, cfg)
	checkRoutes(t, m, r)
	if r.Reachable(0, 1) {
		t.Error("severed columns still reachable")
	}
	if !r.Reachable(0, 4) || !r.Reachable(1, 5) {
		t.Error("intra-column routes lost")
	}
}

func TestRoutesDeterministic(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cfg := StructuralScenario(m, 0.5, 3)
	a := mustRoutes(t, m, cfg)
	b := mustRoutes(t, m, cfg)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			pa, oka := a.Path(src, dst)
			pb, okb := b.Path(src, dst)
			if oka != okb {
				t.Fatalf("reachability of %d→%d differs across builds", src, dst)
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("path %d→%d differs across builds: %v vs %v", src, dst, pa, pb)
				}
			}
		}
	}
}

func TestNeighbor(t *testing.T) {
	m := topology.NewMesh(3, 2)
	cases := []struct {
		id   int
		d    Dir
		want int
	}{
		{0, DirEast, 1}, {0, DirWest, -1}, {0, DirNorth, -1}, {0, DirSouth, 3},
		{4, DirEast, 5}, {4, DirWest, 3}, {4, DirNorth, 1}, {4, DirSouth, -1},
	}
	for _, c := range cases {
		if got := Neighbor(m, c.id, c.d); got != c.want {
			t.Errorf("Neighbor(%d, %v) = %d, want %d", c.id, c.d, got, c.want)
		}
	}
}
