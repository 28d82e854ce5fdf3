package sched

import (
	"fmt"

	"repro/ftdse/internal/model"
)

// ValidateSchedule re-checks the structural and timing invariants of a
// built schedule. Build always produces schedules satisfying these; the
// checker exists for downstream consumers (tools loading schedules,
// tests, and the CLI) and as executable documentation of what a
// synthesized design guarantees:
//
//   - per-node tables are sequential: nominal windows are disjoint and
//     ordered, positions are consistent;
//   - per-item sanity: nominal window length equals the execution time
//     (WCET plus checkpoint overhead), worst cases dominate nominals,
//     analysis rows are monotone in the fault budget;
//   - transmissions obey the transparency rule (slot at or after the
//     sender's SendReady), use the sender's own TDMA slot, and are
//     listed once per edge in edge order;
//   - nominal data flow: every instance starts only after, per incoming
//     edge, at least one input is available in the fault-free run;
//   - bookkeeping: makespan is the latest guaranteed completion,
//     tardiness matches the per-process deadline violations.
func ValidateSchedule(s *Schedule) error {
	in := s.In
	k := in.Faults.K

	for _, n := range in.Arch.Nodes() {
		var prev *Item
		for pos, it := range s.NodeSequence(n.ID) {
			if it.NodePos != pos {
				return fmt.Errorf("sched: node %v: item %v at position %d has NodePos %d",
					n, it.Inst, pos, it.NodePos)
			}
			if it.Inst.Node != n.ID {
				return fmt.Errorf("sched: node %v: item %v mapped to node %d", n, it.Inst, it.Inst.Node)
			}
			if prev != nil && it.NominalStart < prev.NominalFinish {
				return fmt.Errorf("sched: node %v: %v overlaps %v", n, it.Inst, prev.Inst)
			}
			prev = it
		}
	}

	for _, it := range s.Items() {
		p := it.Inst.Proc
		if it.NominalStart < p.Release {
			return fmt.Errorf("sched: %v starts %v before release %v", it.Inst, it.NominalStart, p.Release)
		}
		if it.NominalFinish != it.NominalStart+it.Inst.ExecTime(in.Faults.Chi) {
			return fmt.Errorf("sched: %v nominal window inconsistent", it.Inst)
		}
		if it.WCFinish < it.NominalFinish {
			return fmt.Errorf("sched: %v worst case %v before nominal %v", it.Inst, it.WCFinish, it.NominalFinish)
		}
		if it.SendReady > it.WCFinish {
			return fmt.Errorf("sched: %v send ready %v after worst case %v", it.Inst, it.SendReady, it.WCFinish)
		}
		for f := 1; f <= k; f++ {
			if it.WCRow(f) < it.WCRow(f-1) {
				return fmt.Errorf("sched: %v analysis row not monotone at budget %d", it.Inst, f)
			}
		}
		for i, m := range it.Msgs {
			if i > 0 && m.Edge <= it.Msgs[i-1].Edge {
				return fmt.Errorf("sched: %v messages not in edge order at %v", it.Inst, m)
			}
			if m.Start < it.SendReady {
				return fmt.Errorf("sched: %v message %v precedes send ready %v", it.Inst, m, it.SendReady)
			}
			if in.Bus.Slots[m.Slot].Node != it.Inst.Node {
				return fmt.Errorf("sched: %v message %v uses a foreign slot", it.Inst, m)
			}
		}
	}

	for _, p := range in.Graph.Processes() {
		for _, e := range in.Graph.Predecessors(p.ID) {
			for _, d := range s.Ex.Of(p.ID) {
				dit := s.Item(d.ID)
				earliest := model.Infinity
				for _, src := range s.Ex.Of(e.Src) {
					sit := s.Item(src.ID)
					if src.Node == d.Node {
						earliest = model.MinTime(earliest, sit.NominalFinish)
					} else if tr, ok := sit.Msg(e.Index); ok {
						earliest = model.MinTime(earliest, tr.Arrival)
					}
				}
				if dit.NominalStart < earliest {
					return fmt.Errorf("sched: %v starts %v before its first nominal input %v",
						d, dit.NominalStart, earliest)
				}
			}
		}
	}

	var maxDone, tardiness model.Time
	for _, p := range in.Graph.Processes() {
		r := s.proc(p.ID)
		if !r.placed {
			return fmt.Errorf("sched: process %v has no completion record", p)
		}
		if r.guaranteed < r.nominal {
			return fmt.Errorf("sched: process %v guaranteed %v before nominal %v", p, r.guaranteed, r.nominal)
		}
		maxDone = model.MaxTime(maxDone, r.guaranteed)
		if r.deadline > 0 && r.guaranteed > r.deadline {
			tardiness += r.guaranteed - r.deadline
		}
	}
	if s.Makespan != maxDone {
		return fmt.Errorf("sched: makespan %v, latest completion %v", s.Makespan, maxDone)
	}
	if s.Tardiness != tardiness {
		return fmt.Errorf("sched: tardiness %v, recomputed %v", s.Tardiness, tardiness)
	}
	if s.Schedulable() != (tardiness == 0) {
		return fmt.Errorf("sched: schedulability flag inconsistent with tardiness %v", tardiness)
	}
	return nil
}
