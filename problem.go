package ftdse

import (
	"sync"

	"repro/ftdse/internal/core"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/sysio"
	"repro/ftdse/internal/ttp"
)

// Proc is a lightweight handle to a process of a problem, returned by
// the builder and by Problem.Processes. It is used to reference
// processes in WCET entries, constraints and designs.
type Proc struct {
	ID   ProcID
	Name string
}

func (p Proc) String() string { return p.Name }

// Problem is a complete design-optimization instance: the application,
// the architecture with its WCET table, the fault hypothesis, and the
// designer-imposed constraints (the paper's sets P_X, P_R and P_M).
// Problems are built with a ProblemBuilder, loaded with ReadProblem,
// generated with GenerateProblem, or obtained from CruiseControl.
//
// A Problem is immutable: nothing changes it once it is built, so one
// Problem may be solved, encoded and submitted from many goroutines at
// once. It is a small value; copies share the problem and its document
// (see AppendDocument).
type Problem struct {
	core core.Problem
	doc  *document // nil only in the zero Problem
}

// document holds a Problem's compact document, encoded by the first
// AppendDocument call and shared by every copy of the Problem.
type document struct {
	once sync.Once
	data []byte
	err  error
}

// newProblem wraps a complete problem with its (still empty) document.
// Every constructor goes through it; the document is encoded on first
// use, never here, because most problems are never sent.
func newProblem(p core.Problem) Problem {
	return Problem{core: p, doc: new(document)}
}

// AppendDocument appends the problem's compact JSON document to dst
// and returns the extended slice: exactly the bytes json.Compact makes
// of WriteProblem's output, which is what the solve client sends. The
// first call encodes the document and keeps it; later calls, on this
// Problem or on any copy of it, copy it without encoding again, so a
// caller building a request body copies the document once, straight
// into the body. The zero Problem has no document and reports an
// error, leaving dst as it was.
func (p Problem) AppendDocument(dst []byte) ([]byte, error) {
	if p.doc == nil {
		doc, err := sysio.MarshalProblem(p.core)
		if err != nil {
			return dst, err
		}
		return append(dst, doc...), nil
	}
	d := p.doc
	d.once.Do(func() { d.data, d.err = sysio.MarshalProblem(p.core) })
	if d.err != nil {
		return dst, d.err
	}
	return append(dst, d.data...), nil
}

// Name returns the application name.
func (p Problem) Name() string {
	if p.core.App == nil {
		return ""
	}
	return p.core.App.Name
}

// Processes lists the application's processes in ID order.
func (p Problem) Processes() []Proc {
	if p.core.App == nil {
		return nil
	}
	procs := p.core.App.Processes()
	out := make([]Proc, 0, len(procs))
	for _, pr := range procs {
		out = append(out, Proc{ID: pr.ID, Name: pr.Name})
	}
	return out
}

// NumProcesses returns the number of processes in the application.
func (p Problem) NumProcesses() int {
	if p.core.App == nil {
		return 0
	}
	return p.core.App.NumProcesses()
}

// NumNodes returns the number of computation nodes.
func (p Problem) NumNodes() int {
	if p.core.Arch == nil {
		return 0
	}
	return p.core.Arch.NumNodes()
}

// Faults returns the fault hypothesis.
func (p Problem) Faults() FaultModel { return p.core.Faults }

// Validate checks the problem for consistency.
func (p Problem) Validate() error { return p.core.Validate() }

// Evaluate builds the worst-case schedule of a fixed design — an
// explicit policy assignment for every process — without running any
// optimization. The bus uses the default initial slot configuration.
// Use it to study hand-crafted designs; the Solver constructs designs
// automatically.
func (p Problem) Evaluate(d Design) (*Schedule, error) {
	if err := p.core.Validate(); err != nil {
		return nil, err
	}
	merged, err := p.core.App.Merge()
	if err != nil {
		return nil, err
	}
	return sched.Build(sched.Input{
		Graph:      merged,
		Arch:       p.core.Arch,
		WCET:       p.core.WCET,
		Faults:     p.core.Faults,
		Assignment: d,
		Bus:        ttp.InitialConfig(p.core.Arch, merged.MaxMessageBytes(), ttp.DefaultPerByte),
		Options:    sched.DefaultOptions(),
	})
}
