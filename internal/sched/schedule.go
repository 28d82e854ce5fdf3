package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// NoInst is the sentinel instance ID used in bindings.
const NoInst = policy.InstID(-1)

// BindKind says which constraint determined the worst-case start of an
// item; the critical-path extraction follows these bindings backwards.
type BindKind uint8

const (
	// BindRelease: the item starts at its release time (path source).
	BindRelease BindKind = iota
	// BindPrevOnNode: the previous instance on the same node binds it.
	BindPrevOnNode
	// BindInput: the guaranteed arrival of an input (local predecessor
	// completion or bus message) binds it.
	BindInput
)

func (b BindKind) String() string {
	switch b {
	case BindRelease:
		return "release"
	case BindPrevOnNode:
		return "prev-on-node"
	case BindInput:
		return "input"
	}
	return fmt.Sprintf("BindKind(%d)", uint8(b))
}

// Item is one scheduled replica instance with its timing analysis.
type Item struct {
	Inst *policy.Instance

	// NodePos is the position within the node's static schedule table.
	NodePos int

	// NominalStart/NominalFinish is the fault-free execution window that
	// goes into the node's schedule table.
	NominalStart, NominalFinish model.Time

	// GuaranteedReady is the worst-case time by which all inputs of the
	// instance are certainly valid under any ≤k-fault scenario.
	GuaranteedReady model.Time

	// WCFinish is the worst-case completion over all scenarios in which
	// the instance survives (produces valid output).
	WCFinish model.Time

	// SendReady is the worst-case completion over scenarios with at most
	// Reexec faults on the node; outbound messages are scheduled at or
	// after this time (the transparency rule — see analysis.go).
	SendReady model.Time

	// Bind/BindOn record the constraint that determined the worst case,
	// for critical-path extraction.
	Bind   BindKind
	BindOn policy.InstID

	// Msgs holds the broadcast transmissions of the instance, one per
	// outgoing edge with at least one remote receiver, in edge-index
	// order. Msg looks one up by edge.
	Msgs []Broadcast

	// wcRow[f] is the worst-case surviving completion under at most f
	// faults on the instance's node timeline (f = 0..k).
	wcRow []model.Time
}

// Broadcast is one bus message of an item: the transmission of its
// output over a merged-graph edge.
type Broadcast struct {
	Edge int // index of the edge in Graph.Edges()
	ttp.Transmission
}

// Msg returns the item's transmission over the merged-graph edge with
// index edge; ok is false when the item broadcasts nothing on it.
func (it *Item) Msg(edge int) (tr ttp.Transmission, ok bool) {
	for i := range it.Msgs {
		if it.Msgs[i].Edge == edge {
			return it.Msgs[i].Transmission, true
		}
	}
	return ttp.Transmission{}, false
}

// WCRow returns the worst-case surviving completion of the item under at
// most f faults on its node's timeline. f is clamped to [0, k].
func (it *Item) WCRow(f int) model.Time {
	if f < 0 {
		f = 0
	}
	if f >= len(it.wcRow) {
		f = len(it.wcRow) - 1
	}
	return it.wcRow[f]
}

// procResult is the per-process completion analysis.
type procResult struct {
	guaranteed model.Time // worst-case first-valid completion over replicas
	nominal    model.Time // fault-free first completion
	bindOn     policy.InstID
	deadline   model.Time // effective deadline, <=0 when unconstrained
	placed     bool       // false until the process has been scheduled
}

// Schedule is the synthesized system configuration: per-node schedule
// tables, the bus MEDL, and the worst-case analysis results.
type Schedule struct {
	In Input
	Ex *policy.Expansion

	items   []*Item   // indexed by InstID
	nodeSeq [][]*Item // indexed by NodeID
	bus     *ttp.Bus

	procDone []procResult // indexed by merged ProcID

	// Makespan is the worst-case schedule length δ: the latest
	// guaranteed completion over all processes.
	Makespan model.Time

	// Tardiness is the degree of unschedulability: the sum of worst-case
	// deadline violations. Zero means schedulable.
	Tardiness model.Time

	// worstProc starts the critical-path walk: the process with the
	// largest deadline violation, or the one completing last.
	worstProc model.ProcID
}

// Schedulable reports whether every deadline is met in the worst case.
func (s *Schedule) Schedulable() bool { return s.Tardiness == 0 }

// Item returns the scheduled item of an instance.
func (s *Schedule) Item(id policy.InstID) *Item { return s.items[id] }

// Items returns all items ordered by instance ID.
func (s *Schedule) Items() []*Item { return s.items }

// NodeSequence returns the static schedule table of node n, in execution
// order; none for a node outside the architecture.
func (s *Schedule) NodeSequence(n arch.NodeID) []*Item {
	if n < 0 || int(n) >= len(s.nodeSeq) {
		return nil
	}
	return s.nodeSeq[n]
}

// MEDL returns the synthesized message descriptor list.
func (s *Schedule) MEDL() []ttp.Transmission { return s.bus.MEDL() }

// Bus returns the bus allocator (for inspection).
func (s *Schedule) Bus() *ttp.Bus { return s.bus }

// ProcCompletion returns the worst-case guaranteed completion time of a
// merged-graph process: the time by which, in every ≤k-fault scenario,
// at least one replica has certainly produced the result. It is 0 for
// an ID outside the graph.
func (s *Schedule) ProcCompletion(id model.ProcID) model.Time {
	return s.proc(id).guaranteed
}

// proc returns the completion analysis of a merged-graph process; the
// zero record (not placed) for an ID outside the graph.
func (s *Schedule) proc(id model.ProcID) procResult {
	if id < 0 || int(id) >= len(s.procDone) {
		return procResult{}
	}
	return s.procDone[id]
}

// CriticalPath returns the origin ProcIDs of the processes on the
// critical path of the schedule: the chain of binding constraints from
// the worst process back to a source. The first element is the path
// start (earliest), the last the worst process. Duplicated origins
// (through replicas or node bindings) appear once.
func (s *Schedule) CriticalPath() []model.ProcID {
	return s.AppendCriticalPath(nil)
}

// AppendCriticalPath appends the critical path, as CriticalPath returns
// it, to dst and returns the extended slice. It allocates only when dst
// has no room for one entry per merged-graph process, which the walk
// never exceeds before it drops repeated origins.
//
//ftdse:hotpath
func (s *Schedule) AppendCriticalPath(dst []model.ProcID) []model.ProcID {
	start := len(dst)
	// Every binding names an instance placed before the bound one, and
	// a process's replicas are placed together on distinct nodes, so
	// the walk meets at most one instance per process; the step bound
	// only ends a malformed chain.
	cur := s.proc(s.worstProc).bindOn
	for steps := 0; cur != NoInst && steps < len(s.items); steps++ {
		it := s.items[cur]
		dst = slices.Grow(dst, 1)[:len(dst)+1]
		dst[len(dst)-1] = it.Inst.Proc.Origin
		switch it.Bind {
		case BindPrevOnNode, BindInput:
			cur = it.BindOn
		default:
			cur = NoInst
		}
	}
	// Reverse into path order and deduplicate origins in place, keeping
	// the first occurrence. Paths are short, so a linear scan of the
	// kept prefix beats a set.
	path := dst[start:]
	slices.Reverse(path)
	n := 0
	for _, id := range path {
		if !slices.Contains(path[:n], id) {
			path[n] = id
			n++
		}
	}
	return dst[:start+n]
}

// Violations lists the processes whose worst-case completion exceeds
// their effective deadline, ordered by decreasing violation.
func (s *Schedule) Violations() []Violation {
	var out []Violation
	for id, r := range s.procDone {
		if r.deadline > 0 && r.guaranteed > r.deadline {
			out = append(out, Violation{
				Proc:     model.ProcID(id),
				Deadline: r.deadline,
				WCFinish: r.guaranteed,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi := out[i].WCFinish - out[i].Deadline
		vj := out[j].WCFinish - out[j].Deadline
		if vi != vj {
			return vi > vj
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Violation is one worst-case deadline miss.
type Violation struct {
	Proc     model.ProcID // merged-graph process
	Deadline model.Time
	WCFinish model.Time
}

func (v Violation) String() string {
	return fmt.Sprintf("proc %d finishes at %v, deadline %v", v.Proc, v.WCFinish, v.Deadline)
}
