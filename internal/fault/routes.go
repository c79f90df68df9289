package fault

import (
	"fmt"

	"learn2scale/internal/topology"
)

// Dir is a mesh link direction. The order matches internal/noc's
// output ports (East, West, North, South) so the simulator can map a
// Dir to its port index with a constant offset.
type Dir int

// Link directions, in deterministic tie-break order.
const (
	DirEast Dir = iota
	DirWest
	DirNorth
	DirSouth
	numDirs
)

func (d Dir) String() string {
	switch d {
	case DirEast:
		return "E"
	case DirWest:
		return "W"
	case DirNorth:
		return "N"
	case DirSouth:
		return "S"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Neighbor returns the node reached from id in direction d, or -1 off
// the mesh edge.
func Neighbor(m topology.Mesh, id int, d Dir) int {
	c := m.Coord(id)
	switch d {
	case DirEast:
		if c.X+1 < m.W {
			return id + 1
		}
	case DirWest:
		if c.X > 0 {
			return id - 1
		}
	case DirNorth:
		if c.Y > 0 {
			return id - m.W
		}
	case DirSouth:
		if c.Y+1 < m.H {
			return id + m.W
		}
	}
	return -1
}

const unreachable int32 = 1 << 30

// Routes is the deterministic routing function of a mesh with
// structural faults: up*/down* routing over the surviving links.
//
// Every live link is oriented by a BFS spanning forest (the "up" end
// is the one closer to its component root; ties break toward the
// lower node id). A legal path traverses zero or more up moves
// followed by zero or more down moves — once a packet has moved down
// it never moves up again. The channel-dependency graph of such paths
// is acyclic (up moves strictly decrease the (level, id) key and down
// moves strictly increase it, and down→up transitions are forbidden),
// so the routing is deadlock-free for every dead-link/dead-router
// mask; FuzzFaultedRoute pins the invariant over arbitrary masks.
//
// On a fault-free mesh the simulator keeps its exact dimension-
// ordered XY routing; Routes is consulted only when the fault config
// is structural. The switch is all-or-nothing because mixing two
// individually deadlock-free routing functions can deadlock.
type Routes struct {
	mesh  topology.Mesh
	alive []bool          // router alive
	live  [][numDirs]bool // live[node][dir]: link exists and is not dead
	level []int32         // BFS level from component root (-1 dead router)

	// next[phase][cur*n+dst] is the direction of the next hop for a
	// packet at cur heading to dst (phase 1 once it has moved down);
	// -1 when dst is unreachable from cur (or cur == dst).
	next [2][]int8
	// down[phase][cur*n+dst]: the stored hop is a down move.
	down [2][]bool
	dist [2][]int32
}

// NewRoutes builds the routing function for the mesh under cfg's
// structural faults. A nil cfg (or one with no dead links/routers)
// yields routes over the full mesh.
func NewRoutes(m topology.Mesh, cfg *Config) (*Routes, error) {
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	n := m.Nodes()
	r := &Routes{
		mesh:  m,
		alive: make([]bool, n),
		live:  make([][numDirs]bool, n),
		level: make([]int32, n),
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	if cfg != nil {
		for _, dr := range cfg.DeadRouters {
			r.alive[dr] = false
		}
	}
	dead := map[Link]bool{}
	if cfg != nil {
		for _, l := range cfg.DeadLinks {
			dead[l] = true
		}
	}
	for id := 0; id < n; id++ {
		for d := Dir(0); d < numDirs; d++ {
			nb := Neighbor(m, id, d)
			if nb < 0 || !r.alive[id] || !r.alive[nb] || dead[LinkBetween(id, nb)] {
				continue
			}
			r.live[id][d] = true
		}
	}
	r.assignLevels()
	r.buildTables()
	return r, nil
}

// assignLevels runs BFS over the live undirected graph, one spanning
// tree per connected component, rooted at the component's lowest id.
func (r *Routes) assignLevels() {
	n := r.mesh.Nodes()
	for i := range r.level {
		r.level[i] = -1
	}
	queue := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if !r.alive[root] || r.level[root] >= 0 {
			continue
		}
		r.level[root] = 0
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := Dir(0); d < numDirs; d++ {
				if !r.live[u][d] {
					continue
				}
				v := Neighbor(r.mesh, u, d)
				if r.level[v] < 0 {
					r.level[v] = r.level[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
}

// Up reports whether moving from node a to adjacent node b is an "up"
// move under the spanning-forest orientation: toward the lower BFS
// level, ties toward the lower node id.
func (r *Routes) Up(a, b int) bool {
	if r.level[b] != r.level[a] {
		return r.level[b] < r.level[a]
	}
	return b < a
}

// buildTables computes, for every destination, the shortest legal
// up*/down* distance of every (node, phase) state by reverse BFS,
// then derives deterministic next hops by local argmin with the Dir
// order as tie-break.
func (r *Routes) buildTables() {
	n := r.mesh.Nodes()
	for p := 0; p < 2; p++ {
		r.next[p] = make([]int8, n*n)
		r.down[p] = make([]bool, n*n)
		r.dist[p] = make([]int32, n*n)
	}
	type state struct {
		node  int
		phase int
	}
	queue := make([]state, 0, 2*n)
	for dst := 0; dst < n; dst++ {
		dist := [2][]int32{
			r.dist[0][dst*n : (dst+1)*n],
			r.dist[1][dst*n : (dst+1)*n],
		}
		for p := 0; p < 2; p++ {
			for i := range dist[p] {
				dist[p][i] = unreachable
				r.next[p][dst*n+i] = -1
			}
		}
		if !r.alive[dst] {
			continue
		}
		dist[0][dst], dist[1][dst] = 0, 0
		queue = append(queue[:0], state{dst, 0}, state{dst, 1})
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			v := s.node
			// Relax predecessors u that can move u→v legally into
			// phase s.phase.
			for d := Dir(0); d < numDirs; d++ {
				if !r.live[v][d] {
					continue
				}
				u := Neighbor(r.mesh, v, d)
				up := r.Up(u, v) // the move u→v is an up move
				nd := dist[s.phase][v] + 1
				if up && s.phase == 0 {
					// u in phase 0 may move up into (v, 0).
					if nd < dist[0][u] {
						dist[0][u] = nd
						queue = append(queue, state{u, 0})
					}
				} else if !up && s.phase == 1 {
					// u in either phase may move down into (v, 1).
					if nd < dist[0][u] {
						dist[0][u] = nd
						queue = append(queue, state{u, 0})
					}
					if nd < dist[1][u] {
						dist[1][u] = nd
						queue = append(queue, state{u, 1})
					}
				}
			}
		}
		// Next hops: at (u, phase) pick the legal move minimizing the
		// successor state's distance; Dir order breaks ties.
		for u := 0; u < n; u++ {
			if u == dst || !r.alive[u] {
				continue
			}
			for p := 0; p < 2; p++ {
				if dist[p][u] >= unreachable {
					continue
				}
				best, bestDir, bestDown := unreachable, int8(-1), false
				for d := Dir(0); d < numDirs; d++ {
					if !r.live[u][d] {
						continue
					}
					v := Neighbor(r.mesh, u, d)
					up := r.Up(u, v)
					if p == 1 && up {
						continue
					}
					sp := 1
					if up {
						sp = 0
					}
					if cd := dist[sp][v] + 1; cd < best {
						best, bestDir, bestDown = cd, int8(d), !up
					}
				}
				r.next[p][dst*n+u] = bestDir
				r.down[p][dst*n+u] = bestDown
			}
		}
	}
}

// Reachable reports whether a packet injected at src can legally
// reach dst over the surviving network.
func (r *Routes) Reachable(src, dst int) bool {
	if src == dst {
		return r.alive[src]
	}
	n := r.mesh.Nodes()
	return r.alive[src] && r.alive[dst] && r.dist[0][dst*n+src] < unreachable
}

// NextDir returns the direction of the next hop for a packet at cur
// heading to dst, and whether that hop is a down move (after which
// the packet must set its down phase). ok is false when dst is
// unreachable from cur in the given phase, or cur == dst.
func (r *Routes) NextDir(cur, dst int, downPhase bool) (dir Dir, isDown bool, ok bool) {
	p := 0
	if downPhase {
		p = 1
	}
	n := r.mesh.Nodes()
	d := r.next[p][dst*n+cur]
	if d < 0 {
		return 0, false, false
	}
	return Dir(d), r.down[p][dst*n+cur], true
}

// Path returns the node sequence (src..dst inclusive) a packet
// follows, and whether dst is reachable at all. Used by tests and the
// fuzz target; the simulator walks the table hop by hop instead.
func (r *Routes) Path(src, dst int) ([]int, bool) {
	if !r.Reachable(src, dst) {
		return nil, false
	}
	path := []int{src}
	cur, down := src, false
	for cur != dst {
		d, isDown, ok := r.NextDir(cur, dst, down)
		if !ok {
			return nil, false // cannot happen when Reachable holds
		}
		cur = Neighbor(r.mesh, cur, d)
		if isDown {
			down = true
		}
		path = append(path, cur)
	}
	return path, true
}
