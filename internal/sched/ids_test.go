package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// layeredGraph adds procs processes with seeded random forward edges and
// WCETs to graph g of app, returning them in creation order. The same
// seed gives the same structure in any application.
func layeredGraph(app *model.Application, g *model.Graph, w *arch.WCET, seed int64, procs, nodes int) []*model.Process {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]*model.Process, procs)
	for i := range ps {
		ps[i] = app.AddProcess(g, fmt.Sprintf("P%d", i+1))
		for n := 0; n < nodes; n++ {
			w.Set(ps[i].ID, arch.NodeID(n), model.Ms(int64(10+rng.Intn(90))))
		}
	}
	for i := 1; i < procs; i++ {
		g.AddEdge(ps[rng.Intn(i)], ps[i], 1+rng.Intn(4))
		if i > 1 && rng.Intn(3) == 0 {
			g.AddEdge(ps[rng.Intn(i-1)], ps[i], 1+rng.Intn(4))
		}
	}
	return ps
}

// TestScheduleIDsNotFromZero schedules the second graph of a two-graph
// application directly (unmerged), so its ProcIDs start above 0 and the
// ProcID-indexed tables carry unused leading entries. Build and BuildInto
// must agree, the schedule must validate, and its costs must equal those
// of the same graph numbered from 0. Lookups of IDs outside the graph
// return nothing instead of panicking.
func TestScheduleIDsNotFromZero(t *testing.T) {
	const procs, nodes = 14, 3
	fm := fault.Model{K: 2, Mu: model.Ms(5), Chi: model.Ms(1)}
	a := arch.New(nodes)

	two := model.NewApplication("two")
	w2 := arch.NewWCET()
	layeredGraph(two, two.AddGraph("G1", model.Ms(100000), model.Ms(100000)), w2, 1, 6, nodes)
	g2 := two.AddGraph("G2", model.Ms(100000), model.Ms(100000))
	offset := layeredGraph(two, g2, w2, 2, procs, nodes)

	one := model.NewApplication("one")
	w1 := arch.NewWCET()
	g1 := one.AddGraph("G2", model.Ms(100000), model.Ms(100000))
	zero := layeredGraph(one, g1, w1, 2, procs, nodes)
	if offset[0].ID == 0 || zero[0].ID != 0 {
		t.Fatalf("first IDs %d and %d, want >0 and 0", offset[0].ID, zero[0].ID)
	}

	input := func(g *model.Graph, w *arch.WCET, asgn policy.Assignment) Input {
		in := Input{
			Graph: g, Arch: a, WCET: w, Faults: fm, Assignment: asgn,
			Bus:     ttp.InitialConfig(a, g.MaxMessageBytes(), ttp.DefaultPerByte),
			Options: DefaultOptions(),
		}
		st, err := NewStatic(in)
		if err != nil {
			t.Fatal(err)
		}
		in.Static = st
		return in
	}

	rng := rand.New(rand.NewSource(9))
	sc := NewScratch()
	for round := 0; round < 20; round++ {
		asgnZero := randomAssignment(rng, procIDs(zero), nodes, fm.K)
		asgnOffset := policy.Assignment{}
		for i, p := range zero {
			asgnOffset[offset[i].ID] = asgnZero[p.ID]
		}
		inOffset := input(g2, w2, asgnOffset)
		fresh, err := Build(inOffset)
		if err != nil {
			t.Fatalf("round %d: Build: %v", round, err)
		}
		if err := ValidateSchedule(fresh); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		reused, err := BuildInto(sc, inOffset)
		if err != nil {
			t.Fatalf("round %d: BuildInto: %v", round, err)
		}
		if err := ValidateSchedule(reused); err != nil {
			t.Fatalf("round %d: scratch: %v", round, err)
		}
		ref, err := Build(input(g1, w1, asgnZero))
		if err != nil {
			t.Fatalf("round %d: Build from 0: %v", round, err)
		}
		for _, s := range []*Schedule{fresh, reused} {
			if s.Makespan != ref.Makespan || s.Tardiness != ref.Tardiness {
				t.Fatalf("round %d: cost δ=%v tardy=%v, numbered from 0 δ=%v tardy=%v",
					round, s.Makespan, s.Tardiness, ref.Makespan, ref.Tardiness)
			}
			for i, p := range zero {
				if got, want := s.ProcCompletion(offset[i].ID), ref.ProcCompletion(p.ID); got != want {
					t.Fatalf("round %d: completion of %v = %v, numbered from 0 %v", round, p, got, want)
				}
			}
		}

		for _, id := range []model.ProcID{-1, 0, offset[0].ID - 1, offset[procs-1].ID + 1, 1 << 20} {
			if got := fresh.Ex.Of(id); got != nil {
				t.Fatalf("Of(%d) = %v outside the graph", id, got)
			}
			if got := fresh.ProcCompletion(id); got != 0 {
				t.Fatalf("ProcCompletion(%d) = %v outside the graph", id, got)
			}
		}
		for _, n := range []arch.NodeID{-1, nodes, 99} {
			if got := fresh.NodeSequence(n); got != nil {
				t.Fatalf("NodeSequence(%d) = %v outside the architecture", n, got)
			}
		}
	}
}

func procIDs(ps []*model.Process) []model.ProcID {
	ids := make([]model.ProcID, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}
