package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// randomSystem builds a random DAG application with a random valid
// policy assignment for property tests.
func randomSystem(rng *rand.Rand, nProcs, nNodes, k int) (Input, *model.Application) {
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
		r := 1 + rng.Intn(minInt(k+1, nNodes))
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
	return Input{
		Graph:      merged,
		Arch:       a,
		WCET:       w,
		Faults:     fault.Model{K: k, Mu: model.Ms(5)},
		Assignment: asgn,
		Bus:        ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options:    DefaultOptions(),
	}, app
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBuildInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, _ := randomSystem(rng, 3+rng.Intn(10), 2+rng.Intn(3), rng.Intn(3))
		s, err := Build(in)
		if err != nil {
			t.Logf("Build: %v", err)
			return false
		}
		return checkScheduleInvariants(t, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkScheduleInvariants verifies the structural soundness of a built
// schedule; shared with other test files.
func checkScheduleInvariants(t *testing.T, s *Schedule) bool {
	t.Helper()
	in := s.In
	k := in.Faults.K
	// Per-node tables: positions consistent, nominal windows disjoint.
	for _, n := range in.Arch.Nodes() {
		seq := s.NodeSequence(n.ID)
		var prev *Item
		for pos, it := range seq {
			if it.NodePos != pos {
				t.Logf("node %v: item %v at pos %d has NodePos %d", n, it.Inst, pos, it.NodePos)
				return false
			}
			if it.Inst.Node != n.ID {
				t.Logf("node %v: item %v mapped elsewhere", n, it.Inst)
				return false
			}
			if prev != nil && it.NominalStart < prev.NominalFinish {
				t.Logf("node %v: nominal overlap %v after %v", n, it.Inst, prev.Inst)
				return false
			}
			prev = it
		}
	}
	// Per-item timing invariants.
	for _, it := range s.Items() {
		p := it.Inst.Proc
		if it.NominalStart < p.Release {
			t.Logf("%v nominal start %v before release %v", it.Inst, it.NominalStart, p.Release)
			return false
		}
		if it.NominalFinish != it.NominalStart+it.Inst.ExecTime(in.Faults.Chi) {
			t.Logf("%v nominal window inconsistent", it.Inst)
			return false
		}
		if it.WCFinish < it.NominalFinish {
			t.Logf("%v worst case %v before nominal %v", it.Inst, it.WCFinish, it.NominalFinish)
			return false
		}
		if it.SendReady > it.WCFinish {
			t.Logf("%v send ready %v after wc finish %v", it.Inst, it.SendReady, it.WCFinish)
			return false
		}
		for f := 1; f <= k; f++ {
			if it.WCRow(f) < it.WCRow(f-1) {
				t.Logf("%v wc row not monotone", it.Inst)
				return false
			}
		}
		for _, tr := range it.Msgs {
			if tr.Start < it.SendReady {
				t.Logf("%v message %v before send ready %v", it.Inst, tr, it.SendReady)
				return false
			}
			if in.Bus.Slots[tr.Slot].Node != it.Inst.Node {
				t.Logf("%v message %v in foreign slot", it.Inst, tr)
				return false
			}
		}
	}
	// Nominal precedence: every instance starts after at least one valid
	// nominal input per incoming edge.
	for _, p := range in.Graph.Processes() {
		for _, e := range in.Graph.Predecessors(p.ID) {
			idx := -1
			for i, ge := range in.Graph.Edges() {
				if ge == e.Edge {
					idx = i
					break
				}
			}
			for _, d := range s.Ex.Of(p.ID) {
				dit := s.Item(d.ID)
				earliest := model.Infinity
				for _, src := range s.Ex.Of(e.Src) {
					sit := s.Item(src.ID)
					if src.Node == d.Node {
						earliest = model.MinTime(earliest, sit.NominalFinish)
					} else if tr, ok := sit.Msg(idx); ok {
						earliest = model.MinTime(earliest, tr.Arrival)
					}
				}
				if dit.NominalStart < earliest {
					t.Logf("%v starts %v before first nominal input %v", d, dit.NominalStart, earliest)
					return false
				}
			}
		}
	}
	// Process completions and makespan.
	var maxDone model.Time
	for _, p := range in.Graph.Processes() {
		done := s.ProcCompletion(p.ID)
		nom := s.proc(p.ID).nominal
		if done < nom {
			t.Logf("proc %v guaranteed %v before nominal %v", p, done, nom)
			return false
		}
		maxDone = model.MaxTime(maxDone, done)
	}
	if s.Makespan != maxDone {
		t.Logf("makespan %v != max completion %v", s.Makespan, maxDone)
		return false
	}
	if s.Schedulable() != (len(s.Violations()) == 0) {
		t.Log("Schedulable inconsistent with Violations")
		return false
	}
	// Critical path sanity.
	cp := s.CriticalPath()
	if len(cp) == 0 {
		t.Log("empty critical path")
		return false
	}
	seen := map[model.ProcID]bool{}
	for _, id := range cp {
		if seen[id] {
			t.Log("duplicate origin on critical path")
			return false
		}
		seen[id] = true
	}
	return true
}

func TestBuildDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in, _ := randomSystem(rng, 12, 3, 2)
	s1 := mustBuild(t, in)
	s2 := mustBuild(t, in)
	if s1.Makespan != s2.Makespan || s1.Tardiness != s2.Tardiness {
		t.Fatalf("non-deterministic build: %v/%v vs %v/%v",
			s1.Makespan, s1.Tardiness, s2.Makespan, s2.Tardiness)
	}
	for i := range s1.Items() {
		a, b := s1.Items()[i], s2.Items()[i]
		if a.NominalStart != b.NominalStart || a.WCFinish != b.WCFinish {
			t.Fatalf("item %d differs between builds", i)
		}
	}
	cp1, cp2 := s1.CriticalPath(), s2.CriticalPath()
	if len(cp1) != len(cp2) {
		t.Fatal("critical paths differ between builds")
	}
	for i := range cp1 {
		if cp1[i] != cp2[i] {
			t.Fatal("critical paths differ between builds")
		}
	}
}

func TestBuildNFTDegenerate(t *testing.T) {
	// With k=0 the analysis degenerates: worst case == nominal.
	rng := rand.New(rand.NewSource(7))
	in, _ := randomSystem(rng, 10, 3, 0)
	s := mustBuild(t, in)
	for _, it := range s.Items() {
		if it.WCFinish != it.NominalFinish {
			t.Errorf("%v: k=0 but WCFinish %v != NominalFinish %v", it.Inst, it.WCFinish, it.NominalFinish)
		}
	}
}

func TestBuildRejectsInvalidInput(t *testing.T) {
	s := newSys(t, 2, model.Ms(100), model.Ms(100))
	p := s.proc(t, "P", 10, 10)
	fm := fault.Model{K: 1, Mu: model.Ms(5)}

	t.Run("missing policy", func(t *testing.T) {
		in := s.input(t, fm, policy.Assignment{})
		if _, err := Build(in); err == nil {
			t.Error("Build accepted missing policy")
		}
	})
	t.Run("insufficient redundancy", func(t *testing.T) {
		in := s.input(t, fm, policy.Assignment{p.ID: policy.Reexecution(0, 0)})
		if _, err := Build(in); err == nil {
			t.Error("Build accepted 1 execution for k=1")
		}
	})
	t.Run("bad bus", func(t *testing.T) {
		in := s.input(t, fm, policy.Assignment{p.ID: policy.Reexecution(0, 1)})
		in.Bus.Slots = in.Bus.Slots[:1]
		if _, err := Build(in); err == nil {
			t.Error("Build accepted bus config with missing slot")
		}
	})
	t.Run("negative k", func(t *testing.T) {
		in := s.input(t, fm, policy.Assignment{p.ID: policy.Reexecution(0, 1)})
		in.Faults.K = -1
		if _, err := Build(in); err == nil {
			t.Error("Build accepted negative fault count")
		}
	})
	t.Run("nil graph", func(t *testing.T) {
		in := s.input(t, fm, policy.Assignment{p.ID: policy.Reexecution(0, 1)})
		in.Graph = nil
		if _, err := Build(in); err == nil {
			t.Error("Build accepted nil graph")
		}
	})
}

func TestSlackSharingAblation(t *testing.T) {
	// Slack sharing must never lengthen the schedule, and on a chain of
	// re-executed processes it must strictly shorten it.
	s := newSys(t, 2, model.Ms(10000), model.Ms(10000))
	s.proc(t, "A", 40, 40)
	s.proc(t, "B", 40, 40)
	s.proc(t, "C", 40, 40)
	s.edge(t, "A", "B", 1)
	s.edge(t, "B", "C", 1)
	fm := fault.Model{K: 2, Mu: model.Ms(10)}
	asgn := policy.Assignment{
		s.byName["A"].ID: policy.Reexecution(0, 2),
		s.byName["B"].ID: policy.Reexecution(0, 2),
		s.byName["C"].ID: policy.Reexecution(0, 2),
	}
	in := s.input(t, fm, asgn)
	shared := mustBuild(t, in)
	in2 := in
	in2.Options.SlackSharing = false
	private := mustBuild(t, in2)
	if shared.Makespan >= private.Makespan {
		t.Errorf("shared slack %v should beat private slack %v", shared.Makespan, private.Makespan)
	}
	// Shared: 3·40 + 2·(40+10) = 220; private: 3·(40 + 2·50) = 420.
	if shared.Makespan != model.Ms(220) {
		t.Errorf("shared slack makespan = %v, want 220ms", shared.Makespan)
	}
	if private.Makespan != model.Ms(420) {
		t.Errorf("private slack makespan = %v, want 420ms", private.Makespan)
	}
}

func TestPriorityFunction(t *testing.T) {
	s := newSys(t, 2, model.Ms(10000), model.Ms(10000))
	s.proc(t, "A", 40, 40)
	s.proc(t, "B", 10, 10)
	s.proc(t, "C", 20, 20)
	s.edge(t, "A", "B", 2)
	in := s.input(t, fault.None, policy.Assignment{
		s.byName["A"].ID: policy.Reexecution(0, 0),
		s.byName["B"].ID: policy.Reexecution(0, 0),
		s.byName["C"].ID: policy.Reexecution(0, 0),
	})
	bl := BottomLevels(in)
	aID := s.merged.Processes()[0].ID
	bID := s.merged.Processes()[1].ID
	cID := s.merged.Processes()[2].ID
	// bl(B) = 10, bl(C) = 20, bl(A) = 40 + msgEst(2B) + 10.
	if bl[bID] != model.Ms(10) || bl[cID] != model.Ms(20) {
		t.Errorf("sink bottom levels = %v/%v, want 10/20", bl[bID], bl[cID])
	}
	want := model.Ms(40) + msgEstimate(2, in.Bus) + model.Ms(10)
	if bl[aID] != want {
		t.Errorf("bl(A) = %v, want %v", bl[aID], want)
	}
}
