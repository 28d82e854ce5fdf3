// Package arch models the distributed hardware architecture of the
// paper's Section 2.1: a set of nodes, each with a CPU and a TTP
// communication controller, sharing a broadcast bus. The package also
// holds the worst-case execution time (WCET) table C_Pi^Nk, which is the
// only architecture-dependent parameter of processes.
package arch

import (
	"fmt"

	"repro/ftdse/internal/model"
)

// NodeID identifies a computation node. IDs are dense, starting at 0.
type NodeID int

// Node is one computation node of the architecture.
type Node struct {
	ID   NodeID
	Name string
}

func (n *Node) String() string {
	if n == nil {
		return "<nil node>"
	}
	return fmt.Sprintf("%s(N%d)", n.Name, n.ID)
}

// Architecture is the set of nodes sharing the broadcast TTP bus. The
// bus-access configuration itself lives in package ttp.
type Architecture struct {
	nodes []*Node
}

// New returns an architecture with n anonymous nodes named N1..Nn.
func New(n int) *Architecture {
	a := &Architecture{}
	for i := 0; i < n; i++ {
		a.AddNode(fmt.Sprintf("N%d", i+1))
	}
	return a
}

// NewNamed returns an architecture with one node per name.
func NewNamed(names ...string) *Architecture {
	a := &Architecture{}
	for _, name := range names {
		a.AddNode(name)
	}
	return a
}

// AddNode appends a node with the given name and returns it.
func (a *Architecture) AddNode(name string) *Node {
	n := &Node{ID: NodeID(len(a.nodes)), Name: name}
	a.nodes = append(a.nodes, n)
	return n
}

// Nodes returns the nodes ordered by ID. The slice must not be modified.
func (a *Architecture) Nodes() []*Node { return a.nodes }

// NumNodes returns the number of nodes.
func (a *Architecture) NumNodes() int { return len(a.nodes) }

// Node returns the node with the given ID or nil.
func (a *Architecture) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(a.nodes) {
		return nil
	}
	return a.nodes[id]
}

// Validate checks structural invariants.
func (a *Architecture) Validate() error {
	if len(a.nodes) == 0 {
		return fmt.Errorf("arch: architecture has no nodes")
	}
	for i, n := range a.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("arch: node %q has id %d at index %d", n.Name, n.ID, i)
		}
	}
	return nil
}

// WCET is the worst-case execution time table C_Pi^Nk. A missing entry
// means the process cannot be mapped on that node (the "X" entries of
// Figure 5 in the paper). The table is keyed by the origin ProcID, so it
// applies to all hyper-period instances of a process.
//
// Storage is dense: row p holds one entry per NodeID, and 0 marks a
// missing entry (Set rejects non-positive times). Both ID spaces are
// dense from 0, so the table is |processes| × |nodes|.
type WCET struct {
	c [][]model.Time // c[p][n]
}

// NewWCET returns an empty table.
func NewWCET() *WCET { return &WCET{} }

// Set records the WCET of process p on node n.
func (w *WCET) Set(p model.ProcID, n NodeID, c model.Time) {
	if c <= 0 {
		panic(fmt.Sprintf("arch: non-positive WCET %v for process %d on node %d", c, p, n))
	}
	if p < 0 || n < 0 {
		panic(fmt.Sprintf("arch: WCET for negative process %d or node %d", p, n))
	}
	for int(p) >= len(w.c) {
		w.c = append(w.c, nil)
	}
	row := w.c[p]
	for int(n) >= len(row) {
		row = append(row, 0)
	}
	row[n] = c
	w.c[p] = row
}

// Get returns the WCET of process p on node n; ok is false when the
// process cannot be mapped there.
func (w *WCET) Get(p model.ProcID, n NodeID) (c model.Time, ok bool) {
	row := w.row(p)
	if n < 0 || int(n) >= len(row) {
		return 0, false
	}
	c = row[n]
	return c, c > 0
}

// row returns the entries of p by NodeID, or nil for an unknown process.
func (w *WCET) row(p model.ProcID) []model.Time {
	if p < 0 || int(p) >= len(w.c) {
		return nil
	}
	return w.c[p]
}

// MustGet is Get for mappings already known to be legal.
func (w *WCET) MustGet(p model.ProcID, n NodeID) model.Time {
	c, ok := w.Get(p, n)
	if !ok {
		panic(fmt.Sprintf("arch: process %d not mappable on node %d", p, n))
	}
	return c
}

// Row returns the WCETs of process p indexed by NodeID, 0 where p
// cannot be mapped; nil for an unknown process. Unlike AllowedNodes it
// does not allocate. The slice must not be modified.
func (w *WCET) Row(p model.ProcID) []model.Time { return w.row(p) }

// AllowedNodes returns, in ascending order, the nodes process p can be
// mapped to (the set N_Pi of the paper).
func (w *WCET) AllowedNodes(p model.ProcID) []NodeID {
	row := w.row(p)
	out := make([]NodeID, 0, len(row))
	for n, c := range row {
		if c > 0 {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// Average returns the mean WCET of p over its allowed nodes; it is used
// by mapping-independent priority functions. ok is false when p has no
// allowed node.
func (w *WCET) Average(p model.ProcID) (model.Time, bool) {
	var sum model.Time
	count := 0
	for _, c := range w.row(p) {
		if c > 0 {
			sum += c
			count++
		}
	}
	if count == 0 {
		return 0, false
	}
	return sum / model.Time(count), true
}

// Validate checks that every process of the merged graph can be mapped
// on at least one node of the architecture.
func (w *WCET) Validate(g *model.Graph, a *Architecture) error {
	for _, p := range g.Processes() {
		nodes := w.AllowedNodes(p.Origin)
		if len(nodes) == 0 {
			return fmt.Errorf("arch: process %s has no allowed node", p)
		}
		for _, n := range nodes {
			if a.Node(n) == nil {
				return fmt.Errorf("arch: process %s allows unknown node %d", p, n)
			}
		}
	}
	return nil
}
