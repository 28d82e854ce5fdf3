package sched

import (
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// sys bundles a single-graph test system.
type sys struct {
	app    *model.Application
	g      *model.Graph
	merged *model.Graph
	a      *arch.Architecture
	w      *arch.WCET
	byName map[string]*model.Process // original processes by name
}

// newSys builds a single-graph application on n nodes with the given
// period/deadline.
func newSys(t *testing.T, nodes int, period, deadline model.Time) *sys {
	t.Helper()
	s := &sys{
		app:    model.NewApplication("test"),
		a:      arch.New(nodes),
		w:      arch.NewWCET(),
		byName: make(map[string]*model.Process),
	}
	s.g = s.app.AddGraph("G", period, deadline)
	return s
}

// proc adds a process with per-node WCETs in milliseconds; a value <= 0
// means the process cannot run on that node.
func (s *sys) proc(t *testing.T, name string, wcetMs ...int64) *model.Process {
	t.Helper()
	p := s.app.AddProcess(s.g, name)
	for n, ms := range wcetMs {
		if ms > 0 {
			s.w.Set(p.ID, arch.NodeID(n), model.Ms(ms))
		}
	}
	s.byName[name] = p
	return p
}

// edge connects two processes with a message of the given size.
func (s *sys) edge(t *testing.T, src, dst string, bytes int) {
	t.Helper()
	s.g.AddEdge(s.byName[src], s.byName[dst], bytes)
}

// input builds a scheduler input with the default bus (slot length for
// 4-byte messages: 10 ms slots as in the paper's figures).
func (s *sys) input(t *testing.T, fm fault.Model, asgn policy.Assignment) Input {
	t.Helper()
	merged, err := s.app.Merge()
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	s.merged = merged
	return Input{
		Graph:      merged,
		Arch:       s.a,
		WCET:       s.w,
		Faults:     fm,
		Assignment: asgn,
		Bus:        ttp.InitialConfig(s.a, 4, ttp.DefaultPerByte),
		Options:    DefaultOptions(),
	}
}

// mergedID returns the merged-graph ProcID of the named original process
// (single-instance graphs only).
func (s *sys) mergedID(t *testing.T, name string) model.ProcID {
	t.Helper()
	orig := s.byName[name]
	for _, p := range s.merged.Processes() {
		if p.Origin == orig.ID && p.Instance == 0 {
			return p.ID
		}
	}
	t.Fatalf("no merged instance of %q", name)
	return -1
}

// mustBuild builds the schedule or fails the test.
func mustBuild(t *testing.T, in Input) *Schedule {
	t.Helper()
	s, err := Build(in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// itemOf returns the scheduled item of the given replica of a process.
func itemOf(t *testing.T, s *Schedule, sy *sys, name string, replica int) *Item {
	t.Helper()
	insts := s.Ex.Of(sy.mergedID(t, name))
	if replica >= len(insts) {
		t.Fatalf("process %q has %d replicas, want index %d", name, len(insts), replica)
	}
	return s.Item(insts[replica].ID)
}
