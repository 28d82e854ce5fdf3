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

// maxCheckpoints caps the checkpoints per replica that checkpoint moves
// consider (DESIGN.md §7).
const maxCheckpoints = 4

// hood is the move neighborhood of one process in a design (Section
// 5.2, the transformations of Figure 8), kept as counts so that it can
// be sized without building a move and its i-th move built alone, into
// a caller's buffer. Its moves, in order:
//
//  1. remaps: each replica, except a first replica pinned by P_M, to
//     each free node (an allowed node no replica uses), in node order;
//  2. checkpoint moves (extension), when checkpointing is enabled,
//     k > 0 and the process is not forced to pure replication: one
//     checkpoint more (below maxCheckpoints) and then one fewer (above
//     zero) on each replica that re-executes;
//  3. for a process free to change its policy, with k > 0 and fewer
//     than k+1 replicas: add a replica on each free node, re-spreading
//     the k+1 executions (Figure 2c);
//  4. likewise with more than one replica: drop each replica except a
//     pinned first one, re-spreading the executions.
//
// Every move changes the policy (a remap a node, a checkpoint move a
// count, the others the replica count), so the size is closed-form
// and no index names the current design.
type hood struct {
	proc    model.ProcID
	cur     policy.Policy
	row     []model.Time // the process's WCETs by node; > 0 where allowed
	k       int
	first   int  // the first replica a remap or drop may touch: 1 when pinned
	free    int  // allowed nodes no replica uses
	ckpt    bool // checkpoint moves are on
	reshape bool // add- and drop-replica moves are on
	size    int
}

// hoodOf sizes the neighborhood of process id in design d; ok is false
// when d has no policy for id.
//
//ftdse:hotpath
func (st *searchState) hoodOf(d policy.Assignment, id model.ProcID) (h hood, ok bool) {
	cur, ok := d[id]
	if !ok {
		return hood{}, false
	}
	k := st.p.Faults.K
	freedom := st.p.freedomOf(id, st.opts.Strategy)
	h = hood{
		proc:    id,
		cur:     cur,
		row:     st.p.WCET.Row(id),
		k:       k,
		ckpt:    st.opts.EnableCheckpointing && k > 0 && freedom != freeRepl,
		reshape: freedom == freeAny && k > 0,
	}
	if _, pinned := st.p.FixedMapping[id]; pinned {
		h.first = 1
	}
	for n, c := range h.row {
		if c > 0 && !cur.UsesNode(arch.NodeID(n)) {
			h.free++
		}
	}
	h.size = h.remaps() + h.adds() + h.drops()
	for _, rep := range cur.Replicas {
		up, down := h.checkpointMoves(rep)
		h.size += b2i(up) + b2i(down)
	}
	return h, true
}

// remaps, adds and drops count the moves of those kinds.
//
//ftdse:hotpath
func (h *hood) remaps() int { return max(len(h.cur.Replicas)-h.first, 0) * h.free }

//ftdse:hotpath
func (h *hood) adds() int {
	if h.reshape && len(h.cur.Replicas) < h.k+1 {
		return h.free
	}
	return 0
}

//ftdse:hotpath
func (h *hood) drops() int {
	if h.reshape && len(h.cur.Replicas) > 1 {
		return len(h.cur.Replicas) - h.first
	}
	return 0
}

// checkpointMoves reports whether a replica may take one checkpoint
// more and one fewer.
//
//ftdse:hotpath
func (h *hood) checkpointMoves(rep policy.Replica) (up, down bool) {
	if !h.ckpt || rep.Reexec == 0 {
		return false, false
	}
	return rep.Checkpoints < maxCheckpoints, rep.Checkpoints > 0
}

// build writes the replicas of move i (0 <= i < size) into dst's
// backing array and returns them. dst must have room for one replica
// more than the current policy has and must not share its array.
//
//ftdse:hotpath
func (h *hood) build(dst []policy.Replica, i int) []policy.Replica {
	reps := h.cur.Replicas
	r := len(reps)
	if i < h.remaps() {
		dst = dst[:r]
		copy(dst, reps)
		dst[h.first+i/h.free].Node = h.freeNode(i % h.free)
		return dst
	}
	i -= h.remaps()
	for ri, rep := range reps {
		up, down := h.checkpointMoves(rep)
		if n := b2i(up) + b2i(down); i >= n {
			i -= n
			continue
		}
		dst = dst[:r]
		copy(dst, reps)
		if up && i == 0 {
			dst[ri].Checkpoints++
		} else {
			dst[ri].Checkpoints--
		}
		return dst
	}
	if i < h.adds() {
		dst = dst[:r+1]
		copy(dst, reps)
		dst[r] = policy.Replica{Node: h.freeNode(i)}
		policy.Spread(dst, h.k)
		return dst
	}
	i -= h.adds()
	if i < h.drops() {
		ri := h.first + i
		dst = dst[:r-1]
		copy(dst, reps[:ri])
		copy(dst[ri:], reps[ri+1:])
		policy.Spread(dst, h.k)
		return dst
	}
	panic("core: move index out of the neighborhood")
}

// freeNode returns the j-th free node in node order.
//
//ftdse:hotpath
func (h *hood) freeNode(j int) arch.NodeID {
	for n, c := range h.row {
		if c > 0 && !h.cur.UsesNode(arch.NodeID(n)) {
			if j == 0 {
				return arch.NodeID(n)
			}
			j--
		}
	}
	panic("core: free node out of range")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// generateMoves lists the neighborhood of d restricted to procs
// (normally a critical path, Section 5.2): each process's moves in
// hood order, every move with replicas of its own.
func (st *searchState) generateMoves(d policy.Assignment, procs []model.ProcID) []Move {
	var out []Move
	for _, id := range procs {
		h, ok := st.hoodOf(d, id)
		for i := 0; ok && i < h.size; i++ {
			reps := h.build(make([]policy.Replica, 0, len(h.cur.Replicas)+1), i)
			out = append(out, Move{proc: id, pol: policy.Policy{Replicas: reps}})
		}
	}
	return out
}
