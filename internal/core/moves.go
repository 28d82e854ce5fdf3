package core

import (
	"fmt"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// Move is one design transformation (Figure 8 of the paper): it replaces
// the policy (and thereby the mapping) of a single process. Moves are
// produced by Search.Moves; the fields stay unexported so engines can
// only explore the problem's legal neighborhood.
type Move struct {
	proc model.ProcID
	pol  policy.Policy
}

// Proc is the process whose policy the move replaces.
func (m Move) Proc() model.ProcID { return m.proc }

// Policy is the policy the move assigns to its process.
func (m Move) Policy() policy.Policy { return m.pol }

// ApplyTo returns a copy of the assignment with the move applied; the
// input assignment is not modified.
func (m Move) ApplyTo(asgn policy.Assignment) policy.Assignment {
	out := asgn.Clone()
	out[m.proc] = m.pol.Clone()
	return out
}

func (m Move) String() string {
	return fmt.Sprintf("P%d→%v", m.proc, m.pol)
}

// generateMoves produces the neighborhood of the current assignment
// restricted to the given processes (normally those on the critical
// path, Section 5.2):
//
//   - remapping moves: move one replica to another allowed node;
//   - policy moves (MXR only): add a replica (redistributing the k+1
//     executions, Figure 2c) or drop one.
//
// Processes whose first replica is pinned by P_M keep that node; forced
// policies (P_X, P_R, or the strategy itself) suppress policy moves.
func (st *searchState) generateMoves(asgn policy.Assignment, procs []model.ProcID) []Move {
	k := st.p.Faults.K
	var out []Move
	for _, id := range procs {
		cur, ok := asgn[id]
		if !ok {
			continue
		}
		freedom := st.p.freedomOf(id, st.opts.Strategy)
		allowed := st.p.WCET.AllowedNodes(id)
		_, pinned := st.p.FixedMapping[id]

		appendMove := func(pol policy.Policy) {
			if pol.Equal(cur) {
				return
			}
			out = append(out, Move{proc: id, pol: pol})
		}

		// Remap moves: each replica to each unused allowed node.
		for ri := range cur.Replicas {
			if ri == 0 && pinned {
				continue
			}
			for _, n := range allowed {
				if cur.UsesNode(n) {
					continue
				}
				pol := cur.Clone()
				pol.Replicas[ri].Node = n
				appendMove(pol)
			}
		}

		// Checkpointing moves (extension): add or remove one checkpoint
		// on replicas that re-execute. Available to every strategy that
		// re-executes when the option is enabled.
		if st.opts.EnableCheckpointing && k > 0 && freedom != freeRepl {
			maxCk := st.opts.MaxCheckpoints
			if maxCk <= 0 {
				maxCk = 4
			}
			for ri := range cur.Replicas {
				rep := cur.Replicas[ri]
				if rep.Reexec == 0 {
					continue
				}
				if rep.Checkpoints < maxCk {
					pol := cur.Clone()
					pol.Replicas[ri].Checkpoints++
					appendMove(pol)
				}
				if rep.Checkpoints > 0 {
					pol := cur.Clone()
					pol.Replicas[ri].Checkpoints--
					appendMove(pol)
				}
			}
		}

		if freedom != freeAny || k == 0 {
			continue
		}

		// Add a replica on each unused allowed node, re-spreading the
		// k+1 executions.
		if len(cur.Replicas) < k+1 {
			for _, n := range allowed {
				if cur.UsesNode(n) {
					continue
				}
				nodes := append(cur.Nodes(), n)
				appendMove(policy.Distribute(nodes, k))
			}
		}
		// Drop each replica (keeping a pinned first replica).
		if len(cur.Replicas) > 1 {
			for ri := range cur.Replicas {
				if ri == 0 && pinned {
					continue
				}
				nodes := make([]arch.NodeID, 0, len(cur.Replicas)-1)
				for rj, rep := range cur.Replicas {
					if rj != ri {
						nodes = append(nodes, rep.Node)
					}
				}
				appendMove(policy.Distribute(nodes, k))
			}
		}
	}
	return out
}
