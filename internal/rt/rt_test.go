package rt

import (
	"math/rand"
	"sort"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/sim"
	"repro/ftdse/internal/ttp"
)

// randomSystem mirrors the sim test helper.
func randomSystem(rng *rand.Rand, nProcs, nNodes, k int) sched.Input {
	app := model.NewApplication("rand")
	g := app.AddGraph("G", model.Ms(100000), model.Ms(100000))
	procs := make([]*model.Process, nProcs)
	for i := range procs {
		procs[i] = app.AddProcess(g, "P")
	}
	for i := 0; i < nProcs; i++ {
		for j := i + 1; j < nProcs; j++ {
			if rng.Intn(3) == 0 {
				g.AddEdge(procs[i], procs[j], 1+rng.Intn(4))
			}
		}
	}
	a := arch.New(nNodes)
	w := arch.NewWCET()
	for _, p := range procs {
		for n := 0; n < nNodes; n++ {
			w.Set(p.ID, arch.NodeID(n), model.Ms(int64(10+rng.Intn(91))))
		}
	}
	asgn := policy.Assignment{}
	for _, p := range procs {
		rmax := k + 1
		if nNodes < rmax {
			rmax = nNodes
		}
		r := 1 + rng.Intn(rmax)
		perm := rng.Perm(nNodes)[:r]
		nodes := make([]arch.NodeID, r)
		for i, n := range perm {
			nodes[i] = arch.NodeID(n)
		}
		pol := policy.Distribute(nodes, k)
		if r == 1 && rng.Intn(2) == 0 {
			pol.Replicas[0].Checkpoints = rng.Intn(3)
		}
		asgn[p.ID] = pol
	}
	merged, err := app.Merge()
	if err != nil {
		panic(err)
	}
	return sched.Input{
		Graph:      merged,
		Arch:       a,
		WCET:       w,
		Faults:     fault.Model{K: k, Mu: model.Ms(5), Chi: model.Ms(1)},
		Assignment: asgn,
		Bus:        ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options:    sched.DefaultOptions(),
	}
}

// agree compares the two simulators' results field by field, failing
// the test on any difference.
func agree(t *testing.T, s *sched.Schedule, sc sim.Scenario) bool {
	t.Helper()
	a := sim.Run(s, sc)
	b := Run(s, sc)
	ok := true
	defer func() {
		if !ok {
			t.Errorf("simulators disagree on scenario %v", sc)
		}
	}()
	for _, it := range s.Items() {
		id := it.Inst.ID
		if a.Alive[id] != b.Alive[id] {
			t.Logf("scenario %v: %v alive %v (sim) vs %v (rt)", sc, it.Inst, a.Alive[id], b.Alive[id])
			ok = false
		}
		if a.Alive[id] && a.Finish[id] != b.Finish[id] {
			t.Logf("scenario %v: %v finish %v (sim) vs %v (rt)", sc, it.Inst, a.Finish[id], b.Finish[id])
			ok = false
		}
	}
	for id, done := range a.ProcDone {
		if b.ProcDone[id] != done {
			t.Logf("scenario %v: proc %d done %v (sim) vs %v (rt)", sc, id, done, b.ProcDone[id])
			ok = false
		}
	}
	if a.Makespan != b.Makespan {
		t.Logf("scenario %v: makespan %v (sim) vs %v (rt)", sc, a.Makespan, b.Makespan)
		ok = false
	}
	if a.OK() != b.OK() {
		t.Logf("scenario %v: OK %v (sim: %v) vs %v (rt: %v)", sc, a.OK(), a.Violations, b.OK(), b.Violations)
		ok = false
	}
	if !ok {
		return false
	}
	// Violations must agree as sets (ordering may differ).
	av := append([]string(nil), a.Violations...)
	bv := append([]string(nil), b.Violations...)
	sort.Strings(av)
	sort.Strings(bv)
	if len(av) != len(bv) {
		t.Logf("scenario %v: %d violations (sim) vs %d (rt)", sc, len(av), len(bv))
		ok = false
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Logf("scenario %v: violation %q vs %q", sc, av[i], bv[i])
			ok = false
			return false
		}
	}
	return true
}

// TestCrossValidation runs the event-driven runtime against the
// dependency-ordered simulator on randomized systems over every fault
// scenario of the hypothesis (or samples when too many): the two
// implementations must agree exactly on every field.
func TestCrossValidation(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomSystem(rng, 3+rng.Intn(7), 2+rng.Intn(2), 1+rng.Intn(2))
		s, err := sched.Build(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checked := 0
		if sim.ScenarioCount(s) <= 3000 {
			sim.ForEachScenario(s, func(sc sim.Scenario) bool {
				checked++
				return agree(t, s, sc)
			})
		} else {
			for _, sc := range sim.AdversarialScenarios(s) {
				checked++
				if !agree(t, s, sc) {
					break
				}
			}
			for i := 0; i < 150; i++ {
				checked++
				if !agree(t, s, sim.RandomScenario(rng, s)) {
					break
				}
			}
		}
		_ = checked
		// Beyond the hypothesis: every replica of one process fails, so
		// the two must also report the same violations.
		for _, p := range s.In.Graph.Processes() {
			sc := sim.Scenario{}
			for _, inst := range s.Ex.Of(p.ID) {
				sc[inst.ID] = inst.Reexec + 1
			}
			agree(t, s, sc)
		}
	}
}

// TestFigure7EventDriven replays the Figure 7 contingency scenario in
// the event-driven runtime.
func TestFigure7EventDriven(t *testing.T) {
	app := model.NewApplication("fig7")
	g := app.AddGraph("G", model.Ms(1000), model.Ms(1000))
	p1 := app.AddProcess(g, "P1")
	p2 := app.AddProcess(g, "P2")
	p3 := app.AddProcess(g, "P3")
	g.AddEdge(p1, p2, 4)
	g.AddEdge(p2, p3, 4)
	a := arch.New(2)
	w := arch.NewWCET()
	for n := arch.NodeID(0); n < 2; n++ {
		w.Set(p1.ID, n, model.Ms(40))
		w.Set(p2.ID, n, model.Ms(80))
		w.Set(p3.ID, n, model.Ms(50))
	}
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(sched.Input{
		Graph: merged, Arch: a, WCET: w,
		Faults: fault.Model{K: 1, Mu: model.Ms(10)},
		Assignment: policy.Assignment{
			p1.ID: policy.Reexecution(0, 1),
			p2.ID: policy.Replication(0, 1),
			p3.ID: policy.Reexecution(0, 1),
		},
		Bus:     ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: sched.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var p2OnN1 policy.InstID = -1
	for _, inst := range s.Ex.Instances {
		if inst.Proc.Origin == p2.ID && inst.Node == 0 {
			p2OnN1 = inst.ID
		}
	}
	r := Run(s, sim.Scenario{p2OnN1: 1})
	if !r.OK() {
		t.Fatalf("violations: %v", r.Violations)
	}
	mergedP3 := merged.Processes()[2].ID
	if r.ProcDone[mergedP3] != model.Ms(250) {
		t.Errorf("P3 completion = %v, want 250ms (contingency via event-driven kernel)", r.ProcDone[mergedP3])
	}
}
