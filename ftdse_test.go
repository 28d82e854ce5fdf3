package ftdse_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/ftdse"
	"repro/ftdse/service"
)

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range ftdse.Strategies() {
		got, err := ftdse.ParseStrategy(s.String())
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("ParseStrategy(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if _, err := ftdse.ParseStrategy("mxr"); err != nil {
		t.Errorf("ParseStrategy is not case-insensitive: %v", err)
	}
	if _, err := ftdse.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
	if len(ftdse.StrategyNames()) != len(ftdse.Strategies()) {
		t.Error("StrategyNames and Strategies disagree")
	}
}

func TestParseShapeAndDistRoundTrip(t *testing.T) {
	for _, sh := range []ftdse.GraphShape{ftdse.ShapeRandom, ftdse.ShapeTree, ftdse.ShapeChains} {
		got, err := ftdse.ParseShape(sh.String())
		if err != nil || got != sh {
			t.Errorf("ParseShape(%q) = %v, %v", sh.String(), got, err)
		}
	}
	for _, d := range []ftdse.WCETDist{ftdse.DistUniform, ftdse.DistExponential} {
		got, err := ftdse.ParseWCETDist(d.String())
		if err != nil || got != d {
			t.Errorf("ParseWCETDist(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ftdse.ParseShape("star"); err == nil {
		t.Error("ParseShape accepted an unknown shape")
	}
}

// TestProblemBuilder exercises the fluent construction path end to end:
// build, constrain, solve, and verify the constraints in the design.
func TestProblemBuilder(t *testing.T) {
	b := ftdse.NewProblem("builder").Nodes(2)
	g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(500))
	p1 := g.Process("P1", ftdse.Ms(10), ftdse.Ms(12))
	p2 := g.Process("P2", ftdse.Ms(20), ftdse.Ms(22))
	p3 := g.Process("P3", ftdse.Ms(30), ftdse.Ms(32))
	g.Edge(p1, p2, 2).Edge(p2, p3, 2)
	prob, err := b.Faults(1, ftdse.Ms(5)).
		Pin(p1, 1).
		ForceReexecution(p2).
		ForceReplication(p3).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if prob.NumProcesses() != 3 || prob.NumNodes() != 2 {
		t.Fatalf("problem shape: %d processes on %d nodes", prob.NumProcesses(), prob.NumNodes())
	}
	if prob.Name() != "builder" {
		t.Errorf("Name = %q", prob.Name())
	}
	names := []string{"P1", "P2", "P3"}
	for i, p := range prob.Processes() {
		if p.Name != names[i] {
			t.Errorf("process %d = %q, want %q", i, p.Name, names[i])
		}
	}

	res, err := ftdse.NewSolver(ftdse.WithMaxIterations(30)).Solve(context.Background(), prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Design[p1.ID].Replicas[0].Node != 1 {
		t.Errorf("P1 pinned to node 1, mapped to %v", res.Design[p1.ID])
	}
	if len(res.Design[p2.ID].Replicas) != 1 {
		t.Errorf("P2 forced to re-execution, got %v", res.Design[p2.ID])
	}
	if len(res.Design[p3.ID].Replicas) != 2 {
		t.Errorf("P3 forced to replication, got %v", res.Design[p3.ID])
	}
}

func TestProblemBuilderRejectsInvalid(t *testing.T) {
	// No architecture.
	if _, err := ftdse.NewProblem("x").Build(); err == nil {
		t.Error("Build accepted a problem without an architecture")
	}
	// A process with no WCET anywhere.
	b := ftdse.NewProblem("x").Nodes(2)
	b.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("orphan")
	if _, err := b.Faults(1, ftdse.Ms(1)).Build(); err == nil {
		t.Error("Build accepted a process with no allowed node")
	}
	// A process in both P_X and P_R.
	b2 := ftdse.NewProblem("x").Nodes(2)
	p := b2.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("P", ftdse.Ms(1), ftdse.Ms(1))
	if _, err := b2.Faults(1, ftdse.Ms(1)).ForceReexecution(p).ForceReplication(p).Build(); err == nil {
		t.Error("Build accepted a process in both P_X and P_R")
	}
	// A WCET on a negative node ID (the dense WCET table cannot hold it).
	b3 := ftdse.NewProblem("x").Nodes(2)
	q := b3.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("Q", ftdse.Ms(1))
	if _, err := b3.Faults(1, ftdse.Ms(1)).WCET(q, -1, ftdse.Ms(1)).Build(); err == nil {
		t.Error("Build accepted a WCET on node -1")
	}
	// A WCET on a node outside the architecture: every encoder would
	// then look up a node that does not exist.
	b4 := ftdse.NewProblem("x").Nodes(2)
	r := b4.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("R", ftdse.Ms(1))
	if _, err := b4.Faults(1, ftdse.Ms(1)).WCET(r, 7, ftdse.Ms(3)).Build(); err == nil {
		t.Error("Build accepted a WCET on node 7 of a 2-node architecture")
	}
}

// TestValidateNamesProcessesAndNodes: a problem's validation errors
// name processes as the application does and nodes N1..Nn, as printed
// designs do; only a process the application lacks is named by ID.
func TestValidateNamesProcessesAndNodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(b *ftdse.ProblemBuilder, p ftdse.Proc)
		want  string
	}{
		{"pin where it cannot run", func(b *ftdse.ProblemBuilder, p ftdse.Proc) { b.Pin(p, 1) },
			"core: process Sensor fixed to node N2 where it cannot run"},
		{"pin outside the architecture", func(b *ftdse.ProblemBuilder, p ftdse.Proc) { b.Pin(p, 4) },
			"core: process Sensor fixed to node N5 outside the 2-node architecture"},
		{"WCET outside the architecture", func(b *ftdse.ProblemBuilder, p ftdse.Proc) { b.WCET(p, 7, ftdse.Ms(3)) },
			"core: process Sensor has a WCET on node N8 outside the 2-node architecture"},
		{"both P_X and P_R", func(b *ftdse.ProblemBuilder, p ftdse.Proc) { b.ForceReexecution(p).ForceReplication(p) },
			"core: process Sensor in both P_X and P_R"},
		{"replication without nodes", func(b *ftdse.ProblemBuilder, p ftdse.Proc) { b.ForceReplication(p) },
			"core: process Sensor forced to replication but has only 1 allowed nodes for k=1"},
		{"unknown process", func(b *ftdse.ProblemBuilder, _ ftdse.Proc) { b.Pin(ftdse.Proc{ID: 9, Name: "ghost"}, 0) },
			"core: P_M references unknown process #9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := ftdse.NewProblem("x").Nodes(2).Faults(1, ftdse.Ms(1))
			p := b.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("Sensor", ftdse.Ms(1))
			tc.build(b, p)
			if _, err := b.Build(); err == nil || err.Error() != tc.want {
				t.Errorf("Build error = %v, want %q", err, tc.want)
			}
		})
	}
	b := ftdse.NewProblem("x").Nodes(2)
	b.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("Orphan")
	want := "core: process Orphan has no allowed node"
	if _, err := b.Build(); err == nil || err.Error() != want {
		t.Errorf("Build error = %v, want %q", err, want)
	}
}

// TestBuiltProblemIsImmutable: once Build succeeds, builder calls are
// refused, so they change neither the built Problem's documents nor
// its fingerprint, and cannot race with a Solve of that Problem; a
// later Build reports the misuse. A failed Build leaves the builder
// usable.
func TestBuiltProblemIsImmutable(t *testing.T) {
	b := ftdse.NewProblem("sealed").Nodes(2)
	g := b.Graph("G", ftdse.Ms(100), ftdse.Ms(100))
	a := g.Process("A", ftdse.Ms(10), ftdse.Ms(12))
	c := g.Process("B")
	g.Edge(a, c, 4)
	if _, err := b.Faults(1, ftdse.Ms(2)).Build(); err == nil {
		t.Fatal("Build accepted B without a WCET")
	}
	prob, err := b.WCET(c, 0, ftdse.Ms(5)).Build()
	if err != nil {
		t.Fatalf("Build after fixing the failed one: %v", err)
	}
	opts := service.SolveOptions{MaxIterations: 5, Workers: 1}
	snapshot := func() (string, string, string) {
		var doc bytes.Buffer
		if err := ftdse.WriteProblem(&doc, prob); err != nil {
			t.Fatalf("WriteProblem: %v", err)
		}
		wire, err := prob.AppendDocument(nil)
		if err != nil {
			t.Fatalf("AppendDocument: %v", err)
		}
		fp, err := service.Fingerprint(prob, opts)
		if err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		return doc.String(), string(wire), fp
	}
	doc0, wire0, fp0 := snapshot()

	// Misuse the builder while a solve of the built problem runs.
	done := make(chan error, 1)
	go func() {
		_, err := ftdse.NewSolver(ftdse.WithMaxIterations(20), ftdse.WithWorkers(1)).Solve(context.Background(), prob)
		done <- err
	}()
	x := g.Process("X", ftdse.Ms(3), ftdse.Ms(3))
	g.Edge(c, x, 2).Edge(a, c, 8)
	b.Graph("H", ftdse.Ms(50), ftdse.Ms(50)).Process("Y", ftdse.Ms(1))
	b.WCET(a, 1, ftdse.Ms(99)).Pin(a, 1).ForceReexecution(c).ForceReplication(a).
		Faults(3, ftdse.Ms(9)).CheckpointCost(ftdse.Ms(1)).Nodes(5).NamedNodes("P", "Q")
	if err := <-done; err != nil {
		t.Fatalf("Solve: %v", err)
	}

	if prob.NumProcesses() != 2 || prob.NumNodes() != 2 || prob.Faults().K != 1 {
		t.Errorf("built problem changed: %d processes, %d nodes, k=%d",
			prob.NumProcesses(), prob.NumNodes(), prob.Faults().K)
	}
	if doc, wire, fp := snapshot(); doc != doc0 || wire != wire0 || fp != fp0 {
		t.Errorf("builder calls after Build changed the problem:\ndocument %q\nwant     %q\nwire %q\nwant %q\nfingerprint %s, want %s",
			doc, doc0, wire, wire0, fp, fp0)
	}
	if x.ID >= 0 {
		t.Errorf("a refused Process returned ID %d", x.ID)
	}
	_, err = b.Build()
	if err == nil || !strings.Contains(err.Error(), "Process after Build") {
		t.Errorf("Build after misuse = %v, want the first misuse (Process after Build)", err)
	}
	spent := ftdse.NewProblem("twice").Nodes(1)
	spent.Graph("G", ftdse.Ms(100), ftdse.Ms(100)).Process("P", ftdse.Ms(1))
	spent.MustBuild()
	if _, err := spent.Build(); err == nil {
		t.Error("a second Build of a spent builder succeeded")
	}
}

// TestEvaluateFixedDesign checks the no-search evaluation path used by
// the motivating examples.
func TestEvaluateFixedDesign(t *testing.T) {
	b := ftdse.NewProblem("fixed").Nodes(2)
	g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(1000))
	p1 := g.Process("P1", ftdse.Ms(30), ftdse.Ms(30))
	prob, err := b.Faults(2, ftdse.Ms(10)).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, err := prob.Evaluate(ftdse.Design{p1.ID: ftdse.Reexecution(0, 2)})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// 30ms + 2 × (10ms recovery + 30ms re-run) = 110ms (Figure 2a).
	if s.Makespan != ftdse.Ms(110) {
		t.Errorf("re-execution worst case = %v, want 110ms", s.Makespan)
	}
	r, err := prob.Evaluate(ftdse.Design{p1.ID: ftdse.ReplicatedReexecution([]ftdse.NodeID{0, 1}, 2)})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// Re-executed replicas complete by 70ms in the worst case (Figure 2c).
	if r.Makespan != ftdse.Ms(70) {
		t.Errorf("replicated re-execution worst case = %v, want 70ms", r.Makespan)
	}
}

// TestIOAndRenderRoundTrip writes a problem, reads it back, solves it,
// and exercises the export surfaces.
func TestIOAndRenderRoundTrip(t *testing.T) {
	prob := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 8, Nodes: 2, Seed: 3},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	var buf bytes.Buffer
	if err := ftdse.WriteProblem(&buf, prob); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	back, err := ftdse.ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if back.NumProcesses() != prob.NumProcesses() || back.NumNodes() != prob.NumNodes() {
		t.Fatalf("round trip changed the problem shape")
	}

	res, err := ftdse.NewSolver(ftdse.WithMaxIterations(10)).Solve(context.Background(), back)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := ftdse.ValidateSchedule(res.Schedule); err != nil {
		t.Fatalf("ValidateSchedule: %v", err)
	}
	if rows := ftdse.CompileTables(res.Schedule).TotalRows(); rows <= 0 {
		t.Errorf("CompileTables reports %d rows", rows)
	}
	for name, out := range map[string]string{
		"GanttTable":   ftdse.GanttTable(res.Schedule),
		"GanttChart":   ftdse.GanttChart(res.Schedule, 80),
		"GanttSummary": ftdse.GanttSummary(res.Schedule),
	} {
		if strings.TrimSpace(out) == "" {
			t.Errorf("%s produced no output", name)
		}
	}
	var sched, dot bytes.Buffer
	if err := ftdse.WriteSchedule(&sched, res.Schedule); err != nil {
		t.Errorf("WriteSchedule: %v", err)
	}
	if err := ftdse.WriteDesignDOT(&dot, res.Schedule); err != nil {
		t.Errorf("WriteDesignDOT: %v", err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Errorf("DOT output missing digraph header")
	}
}

// TestSimulationFacade runs every scenario of a small synthesized
// design and checks the analysis bound holds.
func TestSimulationFacade(t *testing.T) {
	prob := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 6, Nodes: 2, Seed: 1},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	res, err := ftdse.NewSolver(ftdse.WithMaxIterations(10)).Solve(context.Background(), prob)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	n := 0
	ftdse.ForEachScenario(res.Schedule, func(sc ftdse.Scenario) bool {
		n++
		r := ftdse.RunScenario(res.Schedule, sc)
		if r.Makespan > res.Schedule.Makespan {
			t.Errorf("scenario %v exceeded the analysis bound: %v > %v",
				sc, r.Makespan, res.Schedule.Makespan)
		}
		return true
	})
	if int64(n) != ftdse.ScenarioCount(res.Schedule) {
		t.Errorf("enumerated %d scenarios, ScenarioCount says %d", n, ftdse.ScenarioCount(res.Schedule))
	}
	cr := ftdse.Campaign{Samples: 100, Seed: 1}.Run(res.Schedule)
	if cr.Violations != 0 {
		t.Errorf("campaign found %d violations of the analysis", cr.Violations)
	}
}

func TestCruiseControlFacade(t *testing.T) {
	prob := ftdse.CruiseControl()
	if prob.NumProcesses() != 32 || prob.NumNodes() != 3 {
		t.Fatalf("CC = %d processes on %d nodes", prob.NumProcesses(), prob.NumNodes())
	}
	if prob.Faults().K != 2 {
		t.Errorf("CC fault hypothesis k = %d, want 2", prob.Faults().K)
	}
	if ftdse.CruiseControlDeadline != ftdse.Ms(250) {
		t.Errorf("CC deadline = %v", ftdse.CruiseControlDeadline)
	}
}
