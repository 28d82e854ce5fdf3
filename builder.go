package ftdse

import (
	"fmt"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/model"
)

// ProblemBuilder assembles a Problem fluently: declare the
// architecture, add process graphs with their processes and data
// dependencies, fill the WCET table, state the fault hypothesis, and
// optionally constrain the design space (P_X, P_R, P_M). Build
// validates everything at once, so intermediate calls never fail.
//
// A builder is single-use: the Problem that a successful Build returns
// owns what the builder assembled, so every later call on the builder
// or on one of its GraphBuilders changes nothing and records an error,
// which a later Build returns. A failed Build leaves the builder usable.
type ProblemBuilder struct {
	app    *model.Application
	arch   *arch.Architecture
	wcet   *arch.WCET
	faults FaultModel

	forceX map[ProcID]bool
	forceR map[ProcID]bool
	pins   map[ProcID]NodeID

	built bool
	errs  []error
}

// NewProblem starts a problem with the given application name.
func NewProblem(name string) *ProblemBuilder {
	return &ProblemBuilder{
		app:    model.NewApplication(name),
		wcet:   arch.NewWCET(),
		forceX: map[ProcID]bool{},
		forceR: map[ProcID]bool{},
		pins:   map[ProcID]NodeID{},
	}
}

// refuse reports whether the builder has already built its Problem. If
// it has, it records the misuse for Build to return, and the caller
// must change nothing.
func (b *ProblemBuilder) refuse(call string) bool {
	if b.built {
		b.errs = append(b.errs, fmt.Errorf("ftdse: %s after Build: the built Problem is immutable and its builder single-use", call))
	}
	return b.built
}

// Nodes declares an architecture of n nodes on a TTP bus: NodeIDs
// 0..n-1, named N1..Nn in every printed design, schedule and chart.
func (b *ProblemBuilder) Nodes(n int) *ProblemBuilder {
	if !b.refuse("Nodes") {
		b.arch = arch.New(n)
	}
	return b
}

// NamedNodes declares the architecture with explicit node names; node
// IDs follow the argument order.
func (b *ProblemBuilder) NamedNodes(names ...string) *ProblemBuilder {
	if !b.refuse("NamedNodes") {
		b.arch = arch.NewNamed(names...)
	}
	return b
}

// Faults states the fault hypothesis: tolerate up to k transient
// faults per operation cycle, each costing mu of recovery overhead.
func (b *ProblemBuilder) Faults(k int, mu Time) *ProblemBuilder {
	if !b.refuse("Faults") {
		b.faults.K = k
		b.faults.Mu = mu
	}
	return b
}

// CheckpointCost sets χ, the state-saving cost per checkpoint, used by
// the checkpointing extension (WithCheckpointing).
func (b *ProblemBuilder) CheckpointCost(chi Time) *ProblemBuilder {
	if !b.refuse("CheckpointCost") {
		b.faults.Chi = chi
	}
	return b
}

// Graph adds a process graph activated every period with the given
// deadline, and returns its builder.
func (b *ProblemBuilder) Graph(name string, period, deadline Time) *GraphBuilder {
	if b.refuse("Graph") {
		return &GraphBuilder{b: b}
	}
	return &GraphBuilder{b: b, g: b.app.AddGraph(name, period, deadline)}
}

// WCET records the worst-case execution time of a process on a node. A
// process may only run on nodes it has a WCET entry for.
func (b *ProblemBuilder) WCET(p Proc, n NodeID, c Time) *ProblemBuilder {
	if b.refuse("WCET") {
		return b
	}
	if p.ID < 0 || n < 0 {
		b.errs = append(b.errs, fmt.Errorf("ftdse: WCET of %v on node %d references an unknown process or node", p, n))
		return b
	}
	b.wcet.Set(p.ID, n, c)
	return b
}

// ForceReexecution pins processes to the pure re-execution policy (the
// paper's P_X set).
func (b *ProblemBuilder) ForceReexecution(ps ...Proc) *ProblemBuilder {
	if !b.refuse("ForceReexecution") {
		for _, p := range ps {
			b.forceX[p.ID] = true
		}
	}
	return b
}

// ForceReplication pins processes to pure active replication (P_R).
func (b *ProblemBuilder) ForceReplication(ps ...Proc) *ProblemBuilder {
	if !b.refuse("ForceReplication") {
		for _, p := range ps {
			b.forceR[p.ID] = true
		}
	}
	return b
}

// Pin fixes the first replica of a process to a node (P_M) — for
// example a sensor that owns node-local hardware.
func (b *ProblemBuilder) Pin(p Proc, n NodeID) *ProblemBuilder {
	if !b.refuse("Pin") {
		b.pins[p.ID] = n
	}
	return b
}

// Build validates the accumulated problem and returns it. After a
// successful Build the builder is spent (see ProblemBuilder).
func (b *ProblemBuilder) Build() (Problem, error) {
	b.refuse("Build")
	if len(b.errs) > 0 {
		return Problem{}, b.errs[0]
	}
	if b.arch == nil {
		return Problem{}, fmt.Errorf("ftdse: no architecture declared (call Nodes or NamedNodes)")
	}
	p := newProblem(core.Problem{
		App:              b.app,
		Arch:             b.arch,
		WCET:             b.wcet,
		Faults:           b.faults,
		ForceReexecution: b.forceX,
		ForceReplication: b.forceR,
		FixedMapping:     b.pins,
	})
	if err := p.core.Validate(); err != nil {
		return Problem{}, err
	}
	b.built = true
	return p, nil
}

// MustBuild is Build for hard-coded problems: it panics on error.
func (b *ProblemBuilder) MustBuild() Problem {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// GraphBuilder adds processes and data dependencies to one process
// graph.
type GraphBuilder struct {
	b *ProblemBuilder
	g *model.Graph // nil when the graph was refused after Build
}

// Process adds a process. Optional WCETs are assigned to nodes 0, 1, …
// in order — a shorthand for calling ProblemBuilder.WCET per node; a
// single value applies to node 0 only. After Build it adds nothing and
// returns a Proc with ID -1.
func (g *GraphBuilder) Process(name string, wcet ...Time) Proc {
	if g.b.refuse("Process") {
		return Proc{ID: -1, Name: name}
	}
	p := g.b.app.AddProcess(g.g, name)
	for i, c := range wcet {
		g.b.wcet.Set(p.ID, NodeID(i), c)
	}
	return Proc{ID: p.ID, Name: p.Name}
}

// Edge adds a data dependency carrying a message of the given payload
// size in bytes. When source and destination map to different nodes the
// message is scheduled on the bus.
func (g *GraphBuilder) Edge(from, to Proc, bytes int) *GraphBuilder {
	if g.b.refuse("Edge") {
		return g
	}
	src := g.b.app.Process(from.ID)
	dst := g.b.app.Process(to.ID)
	if src == nil || dst == nil {
		g.b.errs = append(g.b.errs,
			fmt.Errorf("ftdse: edge %v -> %v references an unknown process", from, to))
		return g
	}
	g.g.AddEdge(src, dst, bytes)
	return g
}
