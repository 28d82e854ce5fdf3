package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

// buildFigure7 reconstructs the paper's Figure 7 system: P1→P2→P3, P2
// replicated on both nodes, P1 and P3 re-executed on N1; k=1, µ=10ms.
func buildFigure7(t *testing.T) (*sched.Schedule, []model.ProcID) {
	t.Helper()
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
	in := sched.Input{
		Graph:  merged,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: 1, Mu: model.Ms(10)},
		Assignment: policy.Assignment{
			p1.ID: policy.Reexecution(0, 1),
			p2.ID: policy.Replication(0, 1),
			p3.ID: policy.Reexecution(0, 1),
		},
		Bus:     ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: sched.DefaultOptions(),
	}
	s, err := sched.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.ProcID, 3)
	for i, p := range merged.Processes() {
		ids[i] = p.ID
	}
	return s, ids
}

func TestFaultFreeRunMatchesNominal(t *testing.T) {
	s, ids := buildFigure7(t)
	r := Run(s, Scenario{})
	if !r.OK() {
		t.Fatalf("fault-free run has violations: %v", r.Violations)
	}
	for _, it := range s.Items() {
		if !r.Alive[it.Inst.ID] {
			t.Errorf("%v not alive in fault-free run", it.Inst)
		}
		if r.Finish[it.Inst.ID] != it.NominalFinish {
			t.Errorf("%v finish = %v, want nominal %v", it.Inst, r.Finish[it.Inst.ID], it.NominalFinish)
		}
	}
	for _, id := range ids {
		nominal := model.Infinity // the first fault-free replica completion
		for _, inst := range s.Ex.Of(id) {
			nominal = model.MinTime(nominal, s.Item(inst.ID).NominalFinish)
		}
		if r.ProcDone[id] != nominal {
			t.Errorf("proc %d done = %v, want nominal %v", id, r.ProcDone[id], nominal)
		}
	}
}

// TestFigure7ContingencySimulation injects the fault of the paper's
// Figure 7 discussion: P2's replica on N1 fails, so P3 must wait for m2
// from the replica on N2 and run without re-execution slack.
func TestFigure7ContingencySimulation(t *testing.T) {
	s, ids := buildFigure7(t)
	p2 := ids[1]
	p3 := ids[2]
	var p2OnN1 policy.InstID = -1
	for _, inst := range s.Ex.Of(p2) {
		if inst.Node == 0 {
			p2OnN1 = inst.ID
		}
	}
	if p2OnN1 < 0 {
		t.Fatal("no replica of P2 on N1")
	}
	r := Run(s, Scenario{p2OnN1: 1})
	if !r.OK() {
		t.Fatalf("scenario has violations: %v", r.Violations)
	}
	if r.Alive[p2OnN1] {
		t.Fatal("P2/1 should be dead")
	}
	p3Inst := s.Ex.Of(p3)[0]
	// m2 from P2/2 arrives at 200 (see sched.TestFigure7); P3 starts
	// there (contingency) and, with the budget exhausted, finishes at
	// 250 — exactly the analysis worst case.
	if got := r.Finish[p3Inst.ID]; got != model.Ms(250) {
		t.Errorf("P3 finish = %v, want 250ms (contingency switch)", got)
	}
	if r.ProcDone[p3] != model.Ms(250) {
		t.Errorf("P3 completion = %v, want 250ms", r.ProcDone[p3])
	}
}

func TestOverBudgetScenarioFails(t *testing.T) {
	s, ids := buildFigure7(t)
	// Kill both replicas of P2: 2 faults, above the k=1 hypothesis.
	sc := Scenario{}
	for _, inst := range s.Ex.Of(ids[1]) {
		sc[inst.ID] = 1
	}
	r := Run(s, sc)
	if r.OK() {
		t.Fatal("killing all replicas must be reported")
	}
}

func TestScenarioHelpers(t *testing.T) {
	s, _ := buildFigure7(t)
	total := func(sc Scenario) int {
		n := 0
		for _, f := range sc {
			n += f
		}
		return n
	}
	// 4 instances, k=1: C(5,1) = 5 scenarios.
	if n := ScenarioCount(s); n != 5 {
		t.Errorf("ScenarioCount = %d, want 5", n)
	}
	var count int
	ForEachScenario(s, func(sc Scenario) bool {
		if total(sc) > 1 {
			t.Errorf("scenario %v exceeds budget", sc)
		}
		count++
		return true
	})
	if count != 5 {
		t.Errorf("enumerated %d scenarios, want 5", count)
	}
	rng := rand.New(rand.NewSource(1))
	sc := RandomScenario(rng, s)
	if total(sc) != 1 {
		t.Errorf("RandomScenario faults = %d, want 1", total(sc))
	}
	adv := AdversarialScenarios(s)
	if len(adv) == 0 {
		t.Error("no adversarial scenarios")
	}
	for _, a := range adv {
		if total(a) > 1 {
			t.Errorf("adversarial scenario %v exceeds budget", a)
		}
	}
}

// TestAnalysisSoundness is the central validation of the reproduction:
// for random systems, every fault scenario within the hypothesis must
// (a) complete every process by its analyzed worst case and (b) meet all
// deadlines whenever the analysis declared the design schedulable.
func TestAnalysisSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, _ := randomSystem(rng, 3+rng.Intn(6), 2+rng.Intn(2), 1+rng.Intn(2))
		s, err := sched.Build(in)
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		ok := true
		check := func(sc Scenario) bool {
			r := Run(s, sc)
			if s.Schedulable() && !r.OK() {
				t.Logf("seed %d scenario %v: violations %v", seed, sc, r.Violations)
				ok = false
				return false
			}
			for _, it := range s.Items() {
				if r.Alive[it.Inst.ID] && r.Finish[it.Inst.ID] > it.WCFinish {
					t.Logf("seed %d scenario %v: %v finished %v after analysis bound %v",
						seed, sc, it.Inst, r.Finish[it.Inst.ID], it.WCFinish)
					ok = false
					return false
				}
			}
			for id, done := range r.ProcDone {
				if done > s.ProcCompletion(id) {
					t.Logf("seed %d scenario %v: proc %d done %v after bound %v",
						seed, sc, id, done, s.ProcCompletion(id))
					ok = false
					return false
				}
			}
			return true
		}
		if ScenarioCount(s) <= 4000 {
			ForEachScenario(s, check)
		} else {
			for _, sc := range AdversarialScenarios(s) {
				if !check(sc) {
					break
				}
			}
			for i := 0; i < 200 && ok; i++ {
				check(RandomScenario(rng, s))
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomSystem mirrors the sched test helper (kept local to avoid
// exporting test-only code across packages).
func randomSystem(rng *rand.Rand, nProcs, nNodes, k int) (sched.Input, *model.Application) {
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
		asgn[p.ID] = policy.Distribute(nodes, k)
	}
	merged, err := app.Merge()
	if err != nil {
		panic(err)
	}
	return sched.Input{
		Graph:      merged,
		Arch:       a,
		WCET:       w,
		Faults:     fault.Model{K: k, Mu: model.Ms(5)},
		Assignment: asgn,
		Bus:        ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options:    sched.DefaultOptions(),
	}, app
}
