package model

// Adjacency is the dense, read-only structure index of a graph: its
// processes and, per process, its outgoing and incoming arcs. Every
// table is indexed by ProcID itself, which is what lets the scheduler
// keep its per-process state in slices instead of maps.
//
// Density: a merged graph numbers its processes 0..n-1 (Merge, and
// ReadProblem reassigns application IDs on load), so its tables are
// exactly n long. An unmerged graph of a multi-graph application has
// IDs starting at some b > 0; its tables then carry b unused leading
// entries, lookups stay exact, and IDs outside the graph read as absent
// (nil process, no arcs).
type Adjacency struct {
	procs      []*Process // by ProcID; nil where the graph has no such process
	succ, pred arcTable
}

// Arc is one edge seen from one of its endpoints, carrying the edge's
// position in Graph.Edges() so that per-edge state (bus messages, input
// records) can be kept in slices indexed by it.
type Arc struct {
	Edge
	Index int
}

// arcTable is a compressed adjacency list: the arcs of process p are
// list[start[p]:start[p+1]], in edge order.
type arcTable struct {
	start []int
	list  []Arc
}

func (t *arcTable) of(id ProcID) []Arc {
	if id < 0 || int(id)+1 >= len(t.start) {
		return nil
	}
	return t.list[t.start[id]:t.start[id+1]:t.start[id+1]]
}

// newAdjacency indexes procs and edges. The tables span every ID that
// appears in either, so a graph whose edges reference a foreign process
// (which Validate rejects) is still indexed without panicking.
func newAdjacency(procs []*Process, edges []Edge) *Adjacency {
	n := 0
	for _, p := range procs {
		n = max(n, int(p.ID)+1)
	}
	for _, e := range edges {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	a := &Adjacency{procs: make([]*Process, n)}
	for _, p := range procs {
		if p.ID >= 0 {
			a.procs[p.ID] = p
		}
	}
	a.succ = newArcTable(n, edges, func(e Edge) ProcID { return e.Src })
	a.pred = newArcTable(n, edges, func(e Edge) ProcID { return e.Dst })
	return a
}

// newArcTable groups the edges by the endpoint end picks, keeping edge
// order within each group (counting sort).
func newArcTable(n int, edges []Edge, end func(Edge) ProcID) arcTable {
	t := arcTable{start: make([]int, n+1), list: make([]Arc, 0, len(edges))}
	for _, e := range edges {
		if id := end(e); id >= 0 {
			t.start[id+1]++
		}
	}
	for i := 1; i <= n; i++ {
		t.start[i] += t.start[i-1]
	}
	t.list = t.list[:t.start[n]]
	next := append([]int(nil), t.start[:n]...)
	for i, e := range edges {
		if id := end(e); id >= 0 {
			t.list[next[id]] = Arc{Edge: e, Index: i}
			next[id]++
		}
	}
	return t
}

// NumIDs returns the length of a table indexed by ProcID: one past the
// largest process ID of the graph.
func (a *Adjacency) NumIDs() int { return len(a.procs) }

// Process returns the process with the given ID, or nil if it does not
// belong to the graph.
func (a *Adjacency) Process(id ProcID) *Process {
	if id < 0 || int(id) >= len(a.procs) {
		return nil
	}
	return a.procs[id]
}

// Successors returns the outgoing arcs of p in edge order. The slice
// must not be modified.
func (a *Adjacency) Successors(p ProcID) []Arc { return a.succ.of(p) }

// Predecessors returns the incoming arcs of p in edge order. The slice
// must not be modified.
func (a *Adjacency) Predecessors(p ProcID) []Arc { return a.pred.of(p) }
