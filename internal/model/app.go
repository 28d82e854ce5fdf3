package model

import (
	"fmt"
	"sort"
)

// Application is a set of process graphs. Process IDs are unique across
// the whole application, which lets WCET tables, mappings and policy
// assignments be keyed by ProcID regardless of the owning graph.
type Application struct {
	Name   string
	graphs []*Graph
	nextID ProcID
}

// NewApplication returns an empty application.
func NewApplication(name string) *Application {
	return &Application{Name: name}
}

// AddGraph creates a new process graph with the given period and
// deadline and attaches it to the application.
func (a *Application) AddGraph(name string, period, deadline Time) *Graph {
	g := NewGraph(name, period, deadline)
	a.graphs = append(a.graphs, g)
	return g
}

// AddProcess creates a new process in graph g with an application-unique
// ID. The graph must belong to this application.
func (a *Application) AddProcess(g *Graph, name string) *Process {
	if !a.owns(g) {
		panic("model: AddProcess on a graph not owned by the application")
	}
	p := &Process{ID: a.nextID, Name: name, Origin: a.nextID}
	a.nextID++
	return g.addProcess(p)
}

func (a *Application) owns(g *Graph) bool {
	for _, og := range a.graphs {
		if og == g {
			return true
		}
	}
	return false
}

// Graphs returns the graphs of the application in creation order.
func (a *Application) Graphs() []*Graph { return a.graphs }

// NumProcesses returns the total number of processes over all graphs.
func (a *Application) NumProcesses() int {
	n := 0
	for _, g := range a.graphs {
		n += g.NumProcesses()
	}
	return n
}

// Processes returns all processes of the application ordered by ID.
func (a *Application) Processes() []*Process {
	var out []*Process
	for _, g := range a.graphs {
		out = append(out, g.Processes()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Process returns the process with the given ID or nil.
func (a *Application) Process(id ProcID) *Process {
	for _, g := range a.graphs {
		if p := g.Process(id); p != nil {
			return p
		}
	}
	return nil
}

// Validate checks every graph and the cross-graph ID uniqueness.
func (a *Application) Validate() error {
	if len(a.graphs) == 0 {
		return fmt.Errorf("model: application %q has no graphs", a.Name)
	}
	seen := make(map[ProcID]bool)
	for _, g := range a.graphs {
		if err := g.Validate(); err != nil {
			return err
		}
		for _, p := range g.Processes() {
			if seen[p.ID] {
				return fmt.Errorf("model: duplicate process id %d across graphs", p.ID)
			}
			seen[p.ID] = true
		}
	}
	return nil
}

// HyperPeriod returns the least common multiple of all graph periods.
func (a *Application) HyperPeriod() Time {
	lcm := Time(1)
	for _, g := range a.graphs {
		lcm = lcmTime(lcm, g.Period)
	}
	return lcm
}

func gcdTime(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcmTime(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcdTime(a, b) * b
}
