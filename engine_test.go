package ftdse_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/ftdse"
)

// engineProblem is a small generated instance shared by the engine
// facade tests.
func engineProblem() ftdse.Problem {
	return ftdse.GenerateProblem(ftdse.GenSpec{Procs: 12, Nodes: 3, Seed: 3},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
}

func TestParseEngineRoundTrip(t *testing.T) {
	for _, name := range ftdse.Engines() {
		eng, err := ftdse.ParseEngine(name)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("ParseEngine(%q).Name() = %q", name, eng.Name())
		}
		// Case-insensitive, like ParseStrategy.
		if _, err := ftdse.ParseEngine(strings.ToUpper(name)); err != nil {
			t.Errorf("ParseEngine(%q) (upper-case): %v", strings.ToUpper(name), err)
		}
	}
}

// TestParseErrorsEnumerateValidNames: every Parse* error names the full
// set of accepted values, so a typo in a flag or API request is
// self-correcting.
func TestParseErrorsEnumerateValidNames(t *testing.T) {
	cases := []struct {
		err   error
		names []string
	}{
		{errOf(ftdse.ParseEngine("bogus")), ftdse.Engines()},
		{errOf(ftdse.ParseStrategy("bogus")), ftdse.StrategyNames()},
		{errOf(ftdse.ParseShape("bogus")), ftdse.ShapeNames()},
		{errOf(ftdse.ParseWCETDist("bogus")), ftdse.WCETDistNames()},
		{errOf(ftdse.ParseStopCause("bogus")), []string{"completed", "time limit", "canceled"}},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatal("unknown name did not error")
		}
		for _, name := range c.names {
			if !strings.Contains(c.err.Error(), name) {
				t.Errorf("error %q does not enumerate %q", c.err, name)
			}
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

// TestStochasticEnginesSubset guards the facade invariant the service
// relies on: every stochastic engine name parses, and the subset stays
// within the canonical list.
func TestStochasticEnginesSubset(t *testing.T) {
	all := ftdse.Engines()
	for _, name := range ftdse.StochasticEngines() {
		if _, err := ftdse.ParseEngine(name); err != nil {
			t.Errorf("stochastic engine %q does not parse: %v", name, err)
		}
		found := false
		for _, n := range all {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("stochastic engine %q missing from Engines()", name)
		}
	}
}

func TestParseStopCauseRoundTrip(t *testing.T) {
	for _, c := range ftdse.StopCauses() {
		got, err := ftdse.ParseStopCause(c.String())
		if err != nil {
			t.Fatalf("ParseStopCause(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseStopCause(%q) = %v", c.String(), got)
		}
	}
}

// TestWithEngineGolden pins the facade-level golden guarantee: the
// default solver and an explicit WithEngine(default) produce identical
// results, and the result reports its engine.
func TestWithEngineGolden(t *testing.T) {
	prob := engineProblem()
	base, err := ftdse.NewSolver(ftdse.WithMaxIterations(30)).Solve(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if base.Engine != "default" {
		t.Fatalf("Result.Engine = %q, want default", base.Engine)
	}
	eng, _ := ftdse.ParseEngine("default")
	explicit, err := ftdse.NewSolver(ftdse.WithMaxIterations(30), ftdse.WithEngine(eng)).
		Solve(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Design, explicit.Design) || base.Cost != explicit.Cost ||
		base.Iterations != explicit.Iterations {
		t.Fatal("WithEngine(default) diverges from the default solver")
	}
}

// TestPortfolioEngineFacade races tabu against simulated annealing
// through the public facade and checks the anytime/quality contract.
// It runs under -race in CI, which is what makes the portfolio's
// concurrency claims checkable.
func TestPortfolioEngineFacade(t *testing.T) {
	prob := engineProblem()
	solve := func(name string) *ftdse.Result {
		t.Helper()
		eng, err := ftdse.ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ftdse.NewSolver(
			ftdse.WithEngine(eng),
			ftdse.WithMaxIterations(30),
		).Solve(context.Background(), prob)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tabu, sa, port := solve("tabu"), solve("sa"), solve("portfolio")
	single := tabu.Cost
	if sa.Cost.Less(single) {
		single = sa.Cost
	}
	if single.Less(port.Cost) {
		t.Errorf("portfolio %v worse than best single engine %v", port.Cost, single)
	}
	if port.Engine != "portfolio" {
		t.Errorf("Result.Engine = %q, want portfolio", port.Engine)
	}
	// Determinism: the race's winner selection must be reproducible.
	if again := solve("portfolio"); again.Cost != port.Cost || !reflect.DeepEqual(again.Design, port.Design) {
		t.Error("portfolio result not deterministic across runs")
	}
}

// TestCustomEngineComposes: a caller-supplied Engine — here a trivial
// first-improvement hill climber written against the public Search
// API — plugs into the solver like a built-in.
type firstImprovement struct{}

func (firstImprovement) Name() string { return "first-improvement" }

func (firstImprovement) Explore(ctx context.Context, s *ftdse.Search) error {
	cur, sch, cost := s.Current()
	for {
		s.Tick()
		moves := s.Moves(cur, sch.CriticalPath())
		applied := false
		for i, ev := range s.Evaluate(ctx, cur, moves) {
			if !ev.OK || !ev.Cost.Less(cost) {
				continue
			}
			nsch, err := s.Materialize(cur, moves[i])
			if err != nil {
				continue
			}
			cur, sch, cost = moves[i].ApplyTo(cur), nsch, ev.Cost
			s.Publish("first", cur, sch, cost)
			applied = true
			break
		}
		if !applied {
			return nil
		}
	}
}

func TestCustomEngineComposes(t *testing.T) {
	prob := engineProblem()
	res, err := ftdse.NewSolver(ftdse.WithEngine(firstImprovement{})).
		Solve(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "first-improvement" {
		t.Errorf("Result.Engine = %q", res.Engine)
	}
	if err := ftdse.ValidateSchedule(res.Schedule); err != nil {
		t.Errorf("custom engine produced invalid schedule: %v", err)
	}
}
