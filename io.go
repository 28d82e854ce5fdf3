package ftdse

import (
	"io"

	"repro/ftdse/internal/dot"
	"repro/ftdse/internal/sysio"
)

// ReadProblem parses a problem from its JSON document: application
// graphs, architecture, WCET table, fault hypothesis and designer
// constraints. The format is written by WriteProblem and by the ftgen
// tool. The parse is strict: unknown fields and content after the
// document are rejected.
func ReadProblem(r io.Reader) (Problem, error) {
	p, err := sysio.ReadProblem(r)
	if err != nil {
		return Problem{}, err
	}
	return newProblem(p), nil
}

// WriteProblem serializes a problem as a human-editable JSON document.
// Process names must be unique across the application (they key the
// WCET table).
func WriteProblem(w io.Writer, p Problem) error {
	return sysio.WriteProblem(w, p.core)
}

// WriteSchedule serializes a built schedule — the per-node schedule
// tables, the bus MEDL and the worst-case analysis — as JSON.
func WriteSchedule(w io.Writer, s *Schedule) error {
	return sysio.WriteSchedule(w, s)
}

// MarshalSchedule returns WriteSchedule's document in compact form:
// exactly the bytes json.Compact makes of WriteSchedule's output.
func MarshalSchedule(s *Schedule) ([]byte, error) {
	return sysio.MarshalSchedule(s)
}

// ScheduleDoc is the parsed form of the schedule export: the document
// WriteSchedule produces, field by field. ReadSchedule returns one;
// WriteScheduleDoc re-serializes it to the identical canonical bytes.
type ScheduleDoc = sysio.ScheduleDoc

// ScheduleFault is the fault hypothesis recorded in a schedule export.
type ScheduleFault = sysio.ScheduleFault

// NodeTable is the static schedule table of one node in a schedule
// export.
type NodeTable = sysio.NodeTable

// TableEntry is one activation in a node's exported schedule table.
type TableEntry = sysio.TableEntry

// MEDLEntry is one message occurrence of the exported bus MEDL.
type MEDLEntry = sysio.MEDLEntry

// ReadSchedule parses a schedule export written by WriteSchedule. The
// parse is strict — unknown fields, trailing content and structurally
// invalid documents are rejected — so an accepted document round-trips
// bit-identically through WriteScheduleDoc.
func ReadSchedule(r io.Reader) (ScheduleDoc, error) {
	return sysio.ReadSchedule(r)
}

// WriteScheduleDoc serializes a schedule document in the canonical
// export form.
func WriteScheduleDoc(w io.Writer, d ScheduleDoc) error {
	return sysio.WriteScheduleDoc(w, d)
}

// WriteDesignDOT renders a synthesized design (mapping, policies and
// messages) as a Graphviz DOT document.
func WriteDesignDOT(w io.Writer, s *Schedule) error {
	return dot.WriteDesign(w, s)
}
