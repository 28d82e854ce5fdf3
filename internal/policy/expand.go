package policy

import (
	"fmt"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
)

// InstID identifies one replica instance in the expanded fault-tolerant
// graph. IDs are dense in expansion order.
type InstID int

// Instance is one replica of one (merged-graph) process: the schedulable
// unit of the fault-tolerant system. P1's policy {N1+1x N2} expands into
// the instances P1/1 on N1 (one re-execution) and P1/2 on N2.
type Instance struct {
	ID          InstID
	Proc        *model.Process // process of the merged graph
	Replica     int            // replica index within the policy
	Node        arch.NodeID
	Reexec      int        // faults this replica recovers from
	Checkpoints int        // state-saving points (segment recovery)
	WCET        model.Time // C of the process on Node

	singleReplica bool // set during expansion; affects Name only
}

// ExecTime returns the fault-free execution time including the
// checkpointing overhead: C + Checkpoints·χ.
func (in *Instance) ExecTime(chi model.Time) model.Time {
	return in.WCET + model.Time(in.Checkpoints)*chi
}

// RecoverTime returns the worst-case cost of one fault: re-executing the
// longest segment plus the recovery overhead µ. Without checkpoints the
// whole process is re-executed (C + µ).
func (in *Instance) RecoverTime(mu model.Time) model.Time {
	segs := model.Time(in.Checkpoints + 1)
	seg := (in.WCET + segs - 1) / segs // ceil
	return seg + mu
}

// Name returns the paper-style replica name, e.g. "P1/2". A process with
// a single replica keeps its plain name.
func (in *Instance) Name() string {
	if in.Replica == 0 && in.singleReplica {
		return in.Proc.Name
	}
	return fmt.Sprintf("%s/%d", in.Proc.Name, in.Replica+1)
}

func (in *Instance) String() string { return in.Name() }

// Expansion is the fault-tolerant instance graph: all replica instances
// plus the per-process grouping needed to resolve edges (every replica
// of a successor consumes the output of every replica of a predecessor).
type Expansion struct {
	Instances []*Instance
	// byProc is indexed by merged-graph ProcID. Instances are laid out
	// process by process, so each entry is a subslice of Instances.
	byProc [][]*Instance
	graph  *model.Graph
}

// Expand instantiates the replica instances of every process of the
// merged graph according to the assignment. WCETs are resolved from the
// table; unmappable replicas are an error. The result is independent of
// any later call.
func Expand(g *model.Graph, asgn Assignment, w *arch.WCET) (*Expansion, error) {
	return new(ExpandScratch).Expand(g, asgn, w)
}

// ExpandScratch makes Expand reusable without allocating: instances are
// laid out in a value arena and the Expansion shell (instance slice and
// per-process index) is recycled between calls. One scratch serves one
// goroutine; the Expansion returned by its Expand is valid only until
// the next call on the same scratch. The optimizer's move evaluator
// keeps one per worker so costing thousands of candidate assignments
// over the same graph allocates nothing in steady state.
type ExpandScratch struct {
	insts []Instance
	ptrs  []*Instance   // Expansion.Instances backing
	procs [][]*Instance // Expansion.byProc backing, by ProcID
	pols  []Policy      // policy of each process, in graph order
	ex    Expansion
}

// grow sizes the per-process buffers for a graph of n processes whose
// ProcID-indexed tables are ids long. Buffers only ever grow, so a
// scratch reallocates only when a larger graph or assignment arrives.
func (sc *ExpandScratch) grow(n, ids int) {
	if cap(sc.pols) < n {
		sc.pols = make([]Policy, n)
	}
	sc.pols = sc.pols[:n]
	if cap(sc.procs) < ids {
		sc.procs = make([][]*Instance, ids)
	}
	sc.procs = sc.procs[:ids]
	clear(sc.procs)
}

// growInstances sizes the instance arenas for total instances.
func (sc *ExpandScratch) growInstances(total int) {
	if cap(sc.insts) < total {
		sc.insts = make([]Instance, total)
		sc.ptrs = make([]*Instance, total)
	}
	sc.insts = sc.insts[:total]
	sc.ptrs = sc.ptrs[:total]
}

// Expand is the scratch-reusing variant of the package-level Expand: the
// instance order, IDs, WCETs and names are the same for every scratch,
// so scheduling results never depend on which one built them.
//
//ftdse:hotpath
func (sc *ExpandScratch) Expand(g *model.Graph, asgn Assignment, w *arch.WCET) (*Expansion, error) {
	procs := g.Processes()
	sc.grow(len(procs), g.Adjacency().NumIDs())
	// Count first so the arena never reallocates while instance pointers
	// are being handed out.
	total := 0
	for i, proc := range procs {
		pol, ok := asgn[proc.Origin]
		if !ok {
			return nil, fmt.Errorf("policy: process %s has no policy", proc)
		}
		sc.pols[i] = pol
		total += len(pol.Replicas)
	}
	sc.growInstances(total)

	ex := &sc.ex
	ex.graph = g
	ex.Instances = sc.ptrs
	ex.byProc = sc.procs
	var next InstID
	for i, proc := range procs {
		pol := sc.pols[i]
		single := len(pol.Replicas) == 1
		first := next
		for ri, rep := range pol.Replicas {
			c, ok := w.Get(proc.Origin, rep.Node)
			if !ok {
				return nil, fmt.Errorf("policy: process %s replica %d not mappable on node %d", proc, ri, rep.Node)
			}
			// Every field is written one by one: assigning a composite
			// literal would clear and copy the whole struct first.
			in := &sc.insts[next]
			in.ID = next
			in.Proc = proc
			in.Replica = ri
			in.Node = rep.Node
			in.Reexec = rep.Reexec
			in.Checkpoints = rep.Checkpoints
			in.WCET = c
			in.singleReplica = single
			ex.Instances[next] = in
			next++
		}
		ex.byProc[proc.ID] = ex.Instances[first:next:next]
	}
	return ex, nil
}

// Of returns the replica instances of the merged-graph process id, in
// replica order; none for an ID outside the graph.
func (ex *Expansion) Of(id model.ProcID) []*Instance {
	if id < 0 || int(id) >= len(ex.byProc) {
		return nil
	}
	return ex.byProc[id]
}

// Graph returns the merged graph the expansion was built from.
func (ex *Expansion) Graph() *model.Graph { return ex.graph }

// NumInstances returns the total number of replica instances.
func (ex *Expansion) NumInstances() int { return len(ex.Instances) }
