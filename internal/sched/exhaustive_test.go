package sched

import (
	"fmt"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// TestExhaustiveTinySystems systematically sweeps small systems: three
// topologies (chain, fork, join) × every policy combination on two
// nodes × k ∈ {1, 2}, building each schedule and checking the full
// invariant suite via ValidateSchedule. This complements the randomized
// property tests with complete coverage of the tiny design space.
func TestExhaustiveTinySystems(t *testing.T) {
	topologies := map[string][][2]int{
		"chain": {{0, 1}, {1, 2}},
		"fork":  {{0, 1}, {0, 2}},
		"join":  {{0, 2}, {1, 2}},
	}
	for name, edges := range topologies {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				// Policy options per process for this k on 2 nodes.
				var options []policy.Policy
				options = append(options,
					policy.Reexecution(0, k),
					policy.Reexecution(1, k),
					policy.Distribute([]arch.NodeID{0, 1}, k),
					policy.Distribute([]arch.NodeID{1, 0}, k),
					policy.Checkpointed(0, k, 1),
				)
				counted := 0
				forAllCombos(options, 3, func(combo []policy.Policy) {
					counted++
					app := model.NewApplication("tiny")
					g := app.AddGraph("G", model.Ms(5000), model.Ms(5000))
					ps := []*model.Process{
						app.AddProcess(g, "A"),
						app.AddProcess(g, "B"),
						app.AddProcess(g, "C"),
					}
					for _, e := range edges {
						g.AddEdge(ps[e[0]], ps[e[1]], 2)
					}
					a := arch.New(2)
					w := arch.NewWCET()
					for i, p := range ps {
						w.Set(p.ID, 0, model.Ms(int64(20+10*i)))
						w.Set(p.ID, 1, model.Ms(int64(25+10*i)))
					}
					asgn := policy.Assignment{}
					for i, p := range ps {
						asgn[p.ID] = combo[i]
					}
					merged, err := app.Merge()
					if err != nil {
						t.Fatal(err)
					}
					s, err := Build(Input{
						Graph:      merged,
						Arch:       a,
						WCET:       w,
						Faults:     fault.Model{K: k, Mu: model.Ms(7), Chi: model.Ms(2)},
						Assignment: asgn,
						Bus:        ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
						Options:    DefaultOptions(),
					})
					if err != nil {
						t.Fatalf("combo %v: %v", combo, err)
					}
					if err := ValidateSchedule(s); err != nil {
						t.Fatalf("combo %v: %v", combo, err)
					}
				})
				if want := 5 * 5 * 5; counted != want {
					t.Fatalf("swept %d combos, want %d", counted, want)
				}
			})
		}
	}
}

// forAllCombos enumerates every assignment of one option per slot.
func forAllCombos(options []policy.Policy, slots int, visit func([]policy.Policy)) {
	combo := make([]policy.Policy, slots)
	var rec func(int)
	rec = func(i int) {
		if i == slots {
			visit(combo)
			return
		}
		for _, o := range options {
			combo[i] = o
			rec(i + 1)
		}
	}
	rec(0)
}

// TestValidateScheduleCatchesCorruption: the validator must reject
// schedules whose invariants are broken after the fact.
func TestValidateScheduleCatchesCorruption(t *testing.T) {
	s := newSys(t, 2, model.Ms(1000), model.Ms(1000))
	a := s.proc(t, "A", 30, 30)
	b := s.proc(t, "B", 20, 20)
	s.edge(t, "A", "B", 2)
	fm := fault.Model{K: 1, Mu: model.Ms(5)}
	sch := mustBuild(t, s.input(t, fm, policy.Assignment{
		a.ID: policy.Reexecution(0, 1),
		b.ID: policy.Reexecution(0, 1),
	}))
	if err := ValidateSchedule(sch); err != nil {
		t.Fatalf("fresh schedule invalid: %v", err)
	}
	t.Run("nominal window", func(t *testing.T) {
		it := sch.Items()[0]
		saved := it.NominalFinish
		it.NominalFinish += model.Ms(1)
		if err := ValidateSchedule(sch); err == nil {
			t.Error("validator accepted corrupted nominal window")
		}
		it.NominalFinish = saved
	})
	t.Run("makespan", func(t *testing.T) {
		saved := sch.Makespan
		sch.Makespan += model.Ms(1)
		if err := ValidateSchedule(sch); err == nil {
			t.Error("validator accepted corrupted makespan")
		}
		sch.Makespan = saved
	})
	t.Run("wc before nominal", func(t *testing.T) {
		it := sch.Items()[0]
		saved := it.WCFinish
		it.WCFinish = it.NominalFinish - model.Ms(1)
		if err := ValidateSchedule(sch); err == nil {
			t.Error("validator accepted worst case before nominal")
		}
		it.WCFinish = saved
	})
	if err := ValidateSchedule(sch); err != nil {
		t.Fatalf("schedule not restored: %v", err)
	}
	t.Run("duplicate broadcast", func(t *testing.T) {
		remote := mustBuild(t, s.input(t, fm, policy.Assignment{
			a.ID: policy.Reexecution(0, 1),
			b.ID: policy.Reexecution(1, 1),
		}))
		it := remote.Item(remote.Ex.Of(s.mergedID(t, "A"))[0].ID)
		if len(it.Msgs) != 1 {
			t.Fatalf("A sends %d broadcasts, want 1", len(it.Msgs))
		}
		it.Msgs = append(it.Msgs, it.Msgs[0])
		if err := ValidateSchedule(remote); err == nil {
			t.Error("validator accepted two broadcasts on one edge")
		}
	})
}
