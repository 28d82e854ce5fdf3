package model

import "fmt"

// ProcID identifies a process uniquely within an Application (and within
// the merged graph derived from it). IDs are dense, starting at 0, in
// creation order.
type ProcID int

// Process is one vertex of a process graph. A process is activated after
// all of its inputs have arrived and issues its outputs when it
// terminates (Section 3 of the paper). Worst-case execution times are
// architecture-dependent and therefore live in the arch package's WCET
// table, not here.
type Process struct {
	ID   ProcID
	Name string

	// Release is the earliest activation time relative to the start of
	// the period instance (0 = released immediately).
	Release Time

	// Deadline is the absolute latest completion time relative to the
	// start of the period instance. Deadline <= 0 means the process has
	// no individual deadline (the graph deadline still applies).
	Deadline Time

	// Origin identifies, for a process instance inside a merged graph,
	// the process of the source application it was instantiated from.
	// For processes of an un-merged application, Origin == ID.
	Origin ProcID

	// Instance is the hyper-period instance index (0-based) for merged
	// graphs; 0 for un-merged applications.
	Instance int
}

func (p *Process) String() string {
	if p == nil {
		return "<nil process>"
	}
	return fmt.Sprintf("%s(#%d)", p.Name, p.ID)
}

// Edge is a directed data dependency between two processes. When source
// and destination are mapped to different nodes the edge becomes a
// message of Bytes bytes on the bus; when they share a node the
// communication time is part of the sender's WCET and the edge only
// imposes precedence (Section 3 of the paper).
type Edge struct {
	Src, Dst ProcID
	// Bytes is the message payload size used for bus scheduling.
	Bytes int
}

func (e Edge) String() string {
	return fmt.Sprintf("e(%d->%d,%dB)", e.Src, e.Dst, e.Bytes)
}
