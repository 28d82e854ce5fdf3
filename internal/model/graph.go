package model

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is one directed, acyclic process graph G(V, E) of an application.
// All processes and messages of a graph share the graph's period; a
// deadline D <= T is imposed on the completion of the whole graph.
type Graph struct {
	Name     string
	Period   Time
	Deadline Time // <= 0 means no graph deadline

	procs []*Process
	edges []Edge

	// adj is the dense adjacency, built on the first read after a
	// mutation. A published Adjacency is never written again: mutation
	// drops the pointer, and readers racing on a fresh graph each build
	// a complete one and publish it whole.
	adj atomic.Pointer[Adjacency]
}

// NewGraph returns an empty graph with the given period and deadline.
// Processes must be added through an Application so that IDs stay unique
// application-wide; see Application.AddGraph and Graph.addProcess.
func NewGraph(name string, period, deadline Time) *Graph {
	return &Graph{Name: name, Period: period, Deadline: deadline}
}

// addProcess appends p; used by Application which owns ID allocation.
func (g *Graph) addProcess(p *Process) *Process {
	g.procs = append(g.procs, p)
	g.adj.Store(nil)
	return p
}

// AddEdge adds a data dependency from src to dst carrying bytes of
// message payload. Both processes must belong to this graph.
func (g *Graph) AddEdge(src, dst *Process, bytes int) Edge {
	if src == nil || dst == nil {
		panic("model: AddEdge with nil process")
	}
	e := Edge{Src: src.ID, Dst: dst.ID, Bytes: bytes}
	g.edges = append(g.edges, e)
	g.adj.Store(nil)
	return e
}

// Adjacency returns the graph's dense adjacency, building it on the
// first call after a mutation. Racing first calls may each build one,
// but every caller gets a complete, never-modified index, so any number
// of goroutines may read a graph concurrently; processes and edges must
// not be added while others read it.
func (g *Graph) Adjacency() *Adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	a := newAdjacency(g.procs, g.edges)
	g.adj.Store(a)
	return a
}

// Processes returns the processes of the graph in creation order.
// The returned slice must not be modified.
func (g *Graph) Processes() []*Process { return g.procs }

// Edges returns the edges of the graph in creation order.
// The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// NumProcesses returns |V|.
func (g *Graph) NumProcesses() int { return len(g.procs) }

// Process returns the process with the given ID, or nil if it does not
// belong to this graph.
func (g *Graph) Process(id ProcID) *Process { return g.Adjacency().Process(id) }

// Successors returns the outgoing edges of p in edge order.
func (g *Graph) Successors(p ProcID) []Arc { return g.Adjacency().Successors(p) }

// Predecessors returns the incoming edges of p in edge order.
func (g *Graph) Predecessors(p ProcID) []Arc { return g.Adjacency().Predecessors(p) }

// TopologicalOrder returns the processes in a deterministic topological
// order (Kahn's algorithm with smallest-ID-first tie breaking). It
// returns an error if the graph contains a cycle.
func (g *Graph) TopologicalOrder() ([]*Process, error) {
	a := g.Adjacency()
	indeg := make([]int, a.NumIDs())
	var ready []ProcID
	for _, p := range g.procs {
		indeg[p.ID] = len(a.Predecessors(p.ID))
		if indeg[p.ID] == 0 {
			ready = append(ready, p.ID)
		}
	}
	order := make([]*Process, 0, len(g.procs))
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		order = append(order, a.Process(id))
		for _, e := range a.Successors(id) {
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				ready = append(ready, e.Dst)
			}
		}
	}
	if len(order) != len(g.procs) {
		return nil, fmt.Errorf("model: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// Validate checks the structural invariants of the graph: positive
// period, deadline within the period, edges connecting existing
// processes, no self-loops, no duplicate edges, and acyclicity.
func (g *Graph) Validate() error {
	if g.Period <= 0 {
		return fmt.Errorf("model: graph %q has non-positive period %v", g.Name, g.Period)
	}
	if g.Deadline > g.Period {
		return fmt.Errorf("model: graph %q deadline %v exceeds period %v", g.Name, g.Deadline, g.Period)
	}
	if len(g.procs) == 0 {
		return fmt.Errorf("model: graph %q has no processes", g.Name)
	}
	ids := make(map[ProcID]bool, len(g.procs))
	for _, p := range g.procs {
		if ids[p.ID] {
			return fmt.Errorf("model: graph %q has duplicate process id %d", g.Name, p.ID)
		}
		ids[p.ID] = true
		if p.Release < 0 {
			return fmt.Errorf("model: process %s has negative release time", p)
		}
		if p.Deadline > 0 && p.Deadline < p.Release {
			return fmt.Errorf("model: process %s has deadline before release", p)
		}
	}
	seen := make(map[[2]ProcID]bool, len(g.edges))
	for _, e := range g.edges {
		if !ids[e.Src] || !ids[e.Dst] {
			return fmt.Errorf("model: graph %q edge %v references unknown process", g.Name, e)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("model: graph %q has self-loop on process %d", g.Name, e.Src)
		}
		if e.Bytes <= 0 {
			return fmt.Errorf("model: graph %q edge %v has non-positive size", g.Name, e)
		}
		key := [2]ProcID{e.Src, e.Dst}
		if seen[key] {
			return fmt.Errorf("model: graph %q has duplicate edge %v", g.Name, e)
		}
		seen[key] = true
	}
	if _, err := g.TopologicalOrder(); err != nil {
		return err
	}
	return nil
}

// MaxMessageBytes returns the size of the largest message in the graph,
// or 0 when the graph has no edges. The initial bus-access configuration
// sets the slot length to this value (Section 5, step 1 of the paper).
func (g *Graph) MaxMessageBytes() int {
	maxB := 0
	for _, e := range g.edges {
		if e.Bytes > maxB {
			maxB = e.Bytes
		}
	}
	return maxB
}
