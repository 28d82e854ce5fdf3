package ftdse_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/ftdse"
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
