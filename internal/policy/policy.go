// Package policy implements the fault-tolerance policy assignment of the
// paper's Sections 3 and 4.1. The combination of policies applied to a
// process is captured by the two functions FR (replication) and FX
// (re-execution, applicable also to replicas): a process runs as r ≥ 1
// replicas, each on its own node, and each replica may additionally be
// re-executed a number of times. The total number of executions
// Σ (1 + reexec_j) must reach k+1 so that k transient faults are
// tolerated (Figure 2 of the paper: pure re-execution is r=1 with k
// re-executions; pure replication is r=k+1; the combined policy spreads
// k+1 executions over fewer replicas).
//
// The mapping decision M is folded into the policy: each replica carries
// the node it is mapped to.
package policy

import (
	"errors"
	"fmt"
	"strings"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
)

// Replica is one active replica of a process: a node plus the number of
// faults this replica recovers from (FX applied to it), and optionally a
// number of checkpoints.
type Replica struct {
	Node   arch.NodeID
	Reexec int

	// Checkpoints splits the replica's execution into Checkpoints+1
	// segments separated by state-saving points (each costing the fault
	// model's χ). A fault then re-executes only the current segment
	// instead of the whole process, which shrinks the recovery slack
	// from Reexec·(C+µ) to Reexec·(C/(Checkpoints+1)+µ). This is the
	// checkpointing technique the paper lists among the software
	// fault-tolerance mechanisms; the optimization over checkpoint
	// counts is this reproduction's extension (see DESIGN.md §7).
	Checkpoints int
}

// Policy is the fault-tolerance decision for one process: its replicas
// (FR) with their re-execution counts (FX) and their mapping (M).
type Policy struct {
	Replicas []Replica
}

// Executions returns the total number of executions the policy provides,
// Σ (1 + reexec_j). A policy tolerates k faults iff Executions() ≥ k+1.
func (p Policy) Executions() int {
	n := 0
	for _, r := range p.Replicas {
		n += 1 + r.Reexec
	}
	return n
}

// Nodes returns the nodes used by the policy in replica order.
func (p Policy) Nodes() []arch.NodeID {
	out := make([]arch.NodeID, len(p.Replicas))
	for i, r := range p.Replicas {
		out[i] = r.Node
	}
	return out
}

// UsesNode reports whether any replica is mapped on node n.
func (p Policy) UsesNode(n arch.NodeID) bool {
	for _, r := range p.Replicas {
		if r.Node == n {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the policy.
func (p Policy) Clone() Policy {
	return Policy{Replicas: append([]Replica(nil), p.Replicas...)}
}

// Equal reports whether two policies are identical (same replicas in the
// same order).
func (p Policy) Equal(q Policy) bool {
	if len(p.Replicas) != len(q.Replicas) {
		return false
	}
	for i := range p.Replicas {
		if p.Replicas[i] != q.Replicas[i] {
			return false
		}
	}
	return true
}

// Validate checks the policy against the fault budget k and the allowed
// nodes of process proc: at least one replica, replicas on pairwise
// distinct allowed nodes, non-negative re-execution counts, and enough
// total executions to tolerate k faults. Errors name nodes as String
// does; Assignment.Validate adds the process name.
func (p Policy) Validate(k int, w *arch.WCET, proc model.ProcID) error {
	if len(p.Replicas) == 0 {
		return errors.New("policy: no replicas")
	}
	seen := make(map[arch.NodeID]bool, len(p.Replicas))
	for _, r := range p.Replicas {
		if r.Reexec < 0 {
			return fmt.Errorf("policy: negative re-execution count on node N%d", r.Node+1)
		}
		if r.Checkpoints < 0 {
			return fmt.Errorf("policy: negative checkpoint count on node N%d", r.Node+1)
		}
		if seen[r.Node] {
			return fmt.Errorf("policy: two replicas on node N%d", r.Node+1)
		}
		seen[r.Node] = true
		if _, ok := w.Get(proc, r.Node); !ok {
			return fmt.Errorf("policy: cannot be mapped on node N%d", r.Node+1)
		}
	}
	if p.Executions() < k+1 {
		return fmt.Errorf("policy: %v provides %d executions, need %d to tolerate %d faults",
			p, p.Executions(), k+1, k)
	}
	return nil
}

func (p Policy) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range p.Replicas {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "N%d", r.Node+1) // nodes are named from N1 (arch.New)
		if r.Reexec > 0 {
			fmt.Fprintf(&b, "+%dx", r.Reexec)
		}
		if r.Checkpoints > 0 {
			fmt.Fprintf(&b, "/%dc", r.Checkpoints)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Checkpointed returns a re-execution policy with checkpoints: one
// replica on node n recovering from k faults, re-executing only the
// failed segment thanks to checkpoints state-saving points.
func Checkpointed(n arch.NodeID, k, checkpoints int) Policy {
	return Policy{Replicas: []Replica{{Node: n, Reexec: k, Checkpoints: checkpoints}}}
}

// Reexecution returns the pure re-execution policy of Figure 2a: one
// replica on node n, re-executed k times.
func Reexecution(n arch.NodeID, k int) Policy {
	return Policy{Replicas: []Replica{{Node: n, Reexec: k}}}
}

// Replication returns the pure active-replication policy of Figure 2b:
// one replica per given node, no re-executions. To tolerate k faults,
// k+1 nodes must be supplied.
func Replication(nodes ...arch.NodeID) Policy {
	p := Policy{Replicas: make([]Replica, len(nodes))}
	for i, n := range nodes {
		p.Replicas[i] = Replica{Node: n}
	}
	return p
}

// Distribute returns the combined policy of Figure 2c: k+1 executions
// spread as evenly as possible over one replica per given node (earlier
// nodes receive the extra re-executions). With one node it degenerates
// to Reexecution, with k+1 nodes to Replication.
func Distribute(nodes []arch.NodeID, k int) Policy {
	if len(nodes) == 0 {
		panic("policy: Distribute with no nodes")
	}
	p := Policy{Replicas: make([]Replica, len(nodes))}
	for i, n := range nodes {
		p.Replicas[i].Node = n
	}
	Spread(p.Replicas, k)
	return p
}

// Spread turns replicas into the combined policy Distribute gives their
// nodes, in place: re-executions as Distribute spreads them and no
// checkpoints. reps must not be empty.
//
//ftdse:hotpath
func Spread(reps []Replica, k int) {
	r := len(reps)
	total := k + 1
	if total < r {
		total = r // more replicas than needed: one execution each
	}
	base := total / r
	rem := total % r
	for i := range reps {
		exec := base
		if i < rem {
			exec++
		}
		reps[i] = Replica{Node: reps[i].Node, Reexec: exec - 1}
	}
}

// Assignment maps every process (by origin ProcID) to its policy. It is
// the tuple <F, M> = <FR, FX, M> of the paper for the whole application.
type Assignment map[model.ProcID]Policy

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for id, p := range a {
		out[id] = p.Clone()
	}
	return out
}

// Validate checks that every process of the merged graph has a valid
// policy for fault budget k.
func (a Assignment) Validate(g *model.Graph, w *arch.WCET, k int) error {
	for _, proc := range g.Processes() {
		p, ok := a[proc.Origin]
		if !ok {
			return fmt.Errorf("policy: process %s has no policy assigned", proc.Name)
		}
		if err := p.Validate(k, w, proc.Origin); err != nil {
			return fmt.Errorf("process %s: %w", proc.Name, err)
		}
	}
	return nil
}
