package sysio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/ftdse/internal/sched"
)

// The schedule export is the deployment artifact of the synthesis: the
// static schedule table of every node (what the paper's real-time
// kernel executes) and the MEDL (what the TTP controllers execute),
// together with the worst-case analysis results. WriteSchedule produces
// it from a built schedule; ReadSchedule parses it back into a
// ScheduleDoc so external tooling (and the round-trip fuzz targets) can
// consume the artifact without re-running the synthesis.

// ScheduleDoc is the parsed form of the schedule export. It mirrors the
// JSON document field by field: re-serializing an unmodified doc with
// WriteScheduleDoc reproduces the input bytes exactly (the document
// format is canonical — fixed key order, two-space indent, trailing
// newline).
//
//ftdse:wire
type ScheduleDoc struct {
	Schedulable bool          `json:"schedulable"`
	MakespanMs  float64       `json:"makespan_ms"`
	TardinessMs float64       `json:"tardiness_ms,omitempty"`
	FaultModel  ScheduleFault `json:"fault_model"`

	Nodes []NodeTable `json:"nodes"`
	MEDL  []MEDLEntry `json:"medl"`
}

// ScheduleFault is the fault hypothesis the schedule was built under.
type ScheduleFault struct {
	K    int     `json:"k"`
	MuMs float64 `json:"mu_ms"`
}

// NodeTable is the static schedule table of one computation node.
type NodeTable struct {
	Node  string       `json:"node"`
	Table []TableEntry `json:"table"`
}

// TableEntry is one activation in a node's schedule table.
type TableEntry struct {
	Process     string  `json:"process"`
	Replica     int     `json:"replica"`
	StartMs     float64 `json:"start_ms"`
	EndMs       float64 `json:"end_ms"`
	WorstCaseMs float64 `json:"worst_case_ms"`
	Reexec      int     `json:"reexec,omitempty"`
	Checkpoints int     `json:"checkpoints,omitempty"`
}

// MEDLEntry is one scheduled message occurrence of the bus MEDL.
type MEDLEntry struct {
	Label     string  `json:"label"`
	Round     int     `json:"round"`
	Slot      int     `json:"slot"`
	Bytes     int     `json:"bytes"`
	StartMs   float64 `json:"start_ms"`
	ArrivalMs float64 `json:"arrival_ms"`
}

// WriteSchedule serializes a synthesized schedule.
func WriteSchedule(w io.Writer, s *sched.Schedule) error {
	return WriteScheduleDoc(w, scheduleDoc(s))
}

// MarshalSchedule returns exactly the bytes json.Compact makes of
// WriteSchedule's output, in one pass: encoding/json indents its
// compact encoding.
func MarshalSchedule(s *sched.Schedule) ([]byte, error) {
	return json.Marshal(scheduleDoc(s))
}

// scheduleDoc is the document value both schedule encodings marshal.
func scheduleDoc(s *sched.Schedule) ScheduleDoc {
	out := ScheduleDoc{
		Schedulable: s.Schedulable(),
		MakespanMs:  s.Makespan.Milliseconds(),
		TardinessMs: s.Tardiness.Milliseconds(),
		FaultModel:  ScheduleFault{K: s.In.Faults.K, MuMs: s.In.Faults.Mu.Milliseconds()},
	}
	for _, n := range s.In.Arch.Nodes() {
		nt := NodeTable{Node: n.Name}
		for _, it := range s.NodeSequence(n.ID) {
			nt.Table = append(nt.Table, TableEntry{
				Process:     it.Inst.Proc.Name,
				Replica:     it.Inst.Replica + 1,
				StartMs:     it.NominalStart.Milliseconds(),
				EndMs:       it.NominalFinish.Milliseconds(),
				WorstCaseMs: it.WCFinish.Milliseconds(),
				Reexec:      it.Inst.Reexec,
				Checkpoints: it.Inst.Checkpoints,
			})
		}
		out.Nodes = append(out.Nodes, nt)
	}
	for _, tr := range s.MEDL() {
		out.MEDL = append(out.MEDL, MEDLEntry{
			Label:     tr.Label,
			Round:     tr.Round,
			Slot:      tr.Slot,
			Bytes:     tr.Bytes,
			StartMs:   tr.Start.Milliseconds(),
			ArrivalMs: tr.Arrival.Milliseconds(),
		})
	}
	return out
}

// WriteScheduleDoc serializes a schedule document in the canonical
// export form: the exact bytes WriteSchedule would produce for the
// schedule the doc describes.
func WriteScheduleDoc(w io.Writer, d ScheduleDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadSchedule parses a schedule export. The parse is strict: unknown
// fields, trailing content and structurally invalid documents (negative
// times, empty names, inverted intervals) are rejected, so any document
// ReadSchedule accepts re-serializes with WriteScheduleDoc to the
// canonical form and is stable under further round trips.
func ReadSchedule(r io.Reader) (ScheduleDoc, error) {
	var d ScheduleDoc
	if err := decodeStrict(r, &d); err != nil {
		return ScheduleDoc{}, fmt.Errorf("sysio: parsing schedule: %w", err)
	}
	if err := d.validate(); err != nil {
		return ScheduleDoc{}, fmt.Errorf("sysio: invalid schedule: %w", err)
	}
	return d, nil
}

// validate checks the structural invariants of a schedule document.
func (d *ScheduleDoc) validate() error {
	if d.MakespanMs < 0 {
		return fmt.Errorf("negative makespan %v", d.MakespanMs)
	}
	if d.TardinessMs < 0 {
		return fmt.Errorf("negative tardiness %v", d.TardinessMs)
	}
	if d.FaultModel.K < 0 || d.FaultModel.MuMs < 0 {
		return fmt.Errorf("invalid fault model k=%d mu=%v", d.FaultModel.K, d.FaultModel.MuMs)
	}
	for ni, n := range d.Nodes {
		if n.Node == "" {
			return fmt.Errorf("node %d has no name", ni)
		}
		for ti, e := range n.Table {
			switch {
			case e.Process == "":
				return fmt.Errorf("node %s entry %d has no process", n.Node, ti)
			case e.Replica < 1:
				return fmt.Errorf("node %s entry %d: replica %d < 1", n.Node, ti, e.Replica)
			case e.StartMs < 0 || e.EndMs < e.StartMs || e.WorstCaseMs < e.EndMs:
				return fmt.Errorf("node %s entry %d: inverted interval [%v, %v, %v]",
					n.Node, ti, e.StartMs, e.EndMs, e.WorstCaseMs)
			case e.Reexec < 0 || e.Checkpoints < 0:
				return fmt.Errorf("node %s entry %d: negative redundancy", n.Node, ti)
			}
		}
	}
	for mi, m := range d.MEDL {
		switch {
		case m.Label == "":
			return fmt.Errorf("medl entry %d has no label", mi)
		case m.Round < 0 || m.Slot < 0:
			return fmt.Errorf("medl entry %d: negative slot occurrence r%d/s%d", mi, m.Round, m.Slot)
		case m.Bytes < 1:
			return fmt.Errorf("medl entry %d: %d bytes", mi, m.Bytes)
		case m.StartMs < 0 || m.ArrivalMs < m.StartMs:
			return fmt.Errorf("medl entry %d: inverted interval [%v, %v]", mi, m.StartMs, m.ArrivalMs)
		}
	}
	return nil
}
