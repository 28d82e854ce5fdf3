package bench

import (
	"context"
	"testing"

	"repro/ftdse"
)

// engineProblems are the generated instances the engine comparison
// runs on: one per graph shape, at the smallest paper dimension so a
// full bench pass stays in CI budget.
func engineProblems() []ftdse.Problem {
	d := Dimension{Procs: 20, Nodes: 2, K: 3, Mu: ftdse.Ms(5)}
	out := make([]ftdse.Problem, 0, 3)
	for seed := 0; seed < 3; seed++ {
		out = append(out, d.Problem(seed))
	}
	return out
}

// BenchmarkEngines compares the built-in search engines — the paper's
// tabu pipeline, simulated annealing, and the racing portfolio — on the
// same generated instances. Besides wall-clock time per full solve, it
// reports the summed makespan (µs) of the designs found, so engine
// quality regressions show up next to engine speed regressions:
//
//	go test -bench BenchmarkEngines -benchtime 1x ./bench
func BenchmarkEngines(b *testing.B) {
	probs := engineProblems()
	for _, name := range []string{"default", "greedy", "tabu", "sa", "portfolio"} {
		eng, err := ftdse.ParseEngine(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			// Allocation counts are part of the engine contract: the
			// evaluator's scratch arenas keep the move-sweep hot path
			// allocation-free (gated by the internal/core allocation
			// tests; reported here).
			b.ReportAllocs()
			solver := ftdse.NewSolver(
				ftdse.WithEngine(eng),
				ftdse.WithMaxIterations(40),
			)
			var makespan ftdse.Time
			for i := 0; i < b.N; i++ {
				makespan = 0
				for _, p := range probs {
					res, err := solver.Solve(context.Background(), p)
					if err != nil {
						b.Fatal(err)
					}
					makespan += res.Cost.Makespan
				}
			}
			b.ReportMetric(float64(makespan), "makespan_us")
		})
	}
}

// BenchmarkPortfolioVsSingles pins the portfolio acceptance property on
// the bench suite: racing tabu against simulated annealing returns a
// design at least as good as the better of the two run alone.
func BenchmarkPortfolioVsSingles(b *testing.B) {
	probs := engineProblems()
	solve := func(name string, p ftdse.Problem) ftdse.Cost {
		eng, err := ftdse.ParseEngine(name)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ftdse.NewSolver(
			ftdse.WithEngine(eng),
			ftdse.WithMaxIterations(40),
		).Solve(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		return res.Cost
	}
	for i := 0; i < b.N; i++ {
		for pi, p := range probs {
			tabu := solve("tabu", p)
			sa := solve("sa", p)
			port := solve("portfolio", p)
			single := tabu
			if sa.Less(single) {
				single = sa
			}
			if single.Less(port) {
				b.Fatalf("problem %d: portfolio %v worse than best single engine %v", pi, port, single)
			}
		}
	}
	b.ReportMetric(float64(len(probs)), "problems")
}
