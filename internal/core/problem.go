// Package core implements the paper's contribution: the design
// optimization strategy of Section 5 (Figure 6) that decides, for a hard
// real-time application on a TTP-based distributed architecture, the
// mapping of processes to nodes and the assignment of fault-tolerance
// policies (re-execution, active replication, or combinations) such that
// k transient faults are tolerated and all deadlines hold.
//
// The strategy has three steps: a fast constructive initial solution
// (InitialBusAccess + InitialMPA), a greedy improvement loop (GreedyMPA)
// and a tabu search (TabuSearchMPA, Figure 9). Besides the paper's MXR
// approach the package implements the evaluation baselines MX
// (re-execution only), MR (replication only), SFX (fault-oblivious
// mapping followed by re-execution) and NFT (the non-fault-tolerant
// reference).
package core

import (
	"fmt"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
)

// sortedProcIDs returns the keys of m in ascending order: constraint
// walks report the same error for the same problem on every run.
func sortedProcIDs[V any](m map[model.ProcID]V) []model.ProcID {
	ids := make([]model.ProcID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Problem is a design-optimization instance: the application, the
// architecture with its WCET table, the fault hypothesis, and the
// designer-imposed constraints (the sets P_X, P_R and P_M of Section 4).
type Problem struct {
	App    *model.Application
	Arch   *arch.Architecture
	WCET   *arch.WCET
	Faults fault.Model

	// ForceReexecution (P_X) pins the listed processes to the pure
	// re-execution policy; ForceReplication (P_R) pins them to pure
	// active replication. A process may appear in at most one set.
	ForceReexecution map[model.ProcID]bool
	ForceReplication map[model.ProcID]bool

	// FixedMapping (P_M) pins the first replica of a process to a node.
	FixedMapping map[model.ProcID]arch.NodeID
}

// Validate checks the problem for consistency. Errors name processes
// by name and nodes N1..Nn, as printed designs do; only a process the
// application does not contain is named by its ID (#id).
func (p Problem) Validate() error {
	if p.App == nil || p.Arch == nil || p.WCET == nil {
		return fmt.Errorf("core: incomplete problem")
	}
	if err := p.App.Validate(); err != nil {
		return err
	}
	if err := p.Arch.Validate(); err != nil {
		return err
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	nodes := p.Arch.NumNodes()
	// Every process must be mappable somewhere, and only on nodes of
	// the architecture; replication-capable checks are per strategy.
	for _, proc := range p.App.Processes() {
		row := p.WCET.Row(proc.ID)
		for n := nodes; n < len(row); n++ {
			if row[n] > 0 {
				return fmt.Errorf("core: process %s has a WCET on node N%d outside the %d-node architecture",
					proc.Name, n+1, nodes)
			}
		}
		if len(p.WCET.AllowedNodes(proc.ID)) == 0 {
			return fmt.Errorf("core: process %s has no allowed node", proc.Name)
		}
	}
	for _, id := range sortedProcIDs(p.ForceReexecution) {
		proc := p.App.Process(id)
		if proc == nil {
			return fmt.Errorf("core: P_X references unknown process #%d", id)
		}
		if p.ForceReplication[id] {
			return fmt.Errorf("core: process %s in both P_X and P_R", proc.Name)
		}
	}
	for _, id := range sortedProcIDs(p.ForceReplication) {
		proc := p.App.Process(id)
		if proc == nil {
			return fmt.Errorf("core: P_R references unknown process #%d", id)
		}
		if allowed := len(p.WCET.AllowedNodes(id)); allowed < p.Faults.K+1 {
			return fmt.Errorf("core: process %s forced to replication but has only %d allowed nodes for k=%d",
				proc.Name, allowed, p.Faults.K)
		}
	}
	for _, id := range sortedProcIDs(p.FixedMapping) {
		n := p.FixedMapping[id]
		proc := p.App.Process(id)
		if proc == nil {
			return fmt.Errorf("core: P_M references unknown process #%d", id)
		}
		if n < 0 || int(n) >= nodes {
			return fmt.Errorf("core: process %s fixed to node N%d outside the %d-node architecture",
				proc.Name, n+1, nodes)
		}
		if _, ok := p.WCET.Get(id, n); !ok {
			return fmt.Errorf("core: process %s fixed to node N%d where it cannot run", proc.Name, n+1)
		}
	}
	return nil
}

// policyFreedom classifies what the optimizer may change for a process
// under a given strategy and the problem constraints.
type policyFreedom int

const (
	freeAny    policyFreedom = iota // policy and mapping moves
	freeReexec                      // pure re-execution, mapping moves only
	freeRepl                        // pure replication, replica remaps only
)

// freedomOf resolves the per-process freedom for a strategy.
func (p Problem) freedomOf(id model.ProcID, strat Strategy) policyFreedom {
	if p.ForceReexecution[id] {
		return freeReexec
	}
	if p.ForceReplication[id] {
		return freeRepl
	}
	switch strat {
	case MX, SFX, NFT:
		return freeReexec
	case MR:
		return freeRepl
	default:
		return freeAny
	}
}

// mergedGraph builds the merged application graph Γ.
func (p Problem) mergedGraph() (*model.Graph, error) {
	return p.App.Merge()
}
