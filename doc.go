// Package ftdse synthesizes fault-tolerant implementations of hard
// real-time applications on TTP-based distributed architectures. It is
// a Go reproduction of Izosimov, Pop, Eles, Peng: "Design Optimization
// of Time- and Cost-Constrained Fault-Tolerant Distributed Embedded
// Systems" (DATE 2005), packaged as an embeddable library.
//
// Given an application (process graphs with data dependencies), an
// architecture (nodes on a TTP bus with per-node worst-case execution
// times) and a fault hypothesis (k transient faults per operation
// cycle, recovery overhead µ), the solver decides the mapping of
// processes to nodes and the assignment of fault-tolerance policies —
// re-execution, active replication, and combinations of the two — and
// builds static schedule tables plus the bus MEDL such that all
// deadlines hold in the worst case.
//
// # Building a problem
//
// Problems are assembled with a ProblemBuilder or loaded from JSON with
// ReadProblem. Designer-imposed constraints map to the paper's sets:
// ForceReexecution is P_X, ForceReplication is P_R and Pin is P_M.
//
//	b := ftdse.NewProblem("demo").Nodes(2).Faults(1, ftdse.Ms(5))
//	g := b.Graph("loop", ftdse.Ms(200), ftdse.Ms(150))
//	sensor := g.Process("Sensor", ftdse.Ms(8), ftdse.Ms(10))
//	actuate := g.Process("Actuate", ftdse.Ms(8), ftdse.Ms(10))
//	g.Edge(sensor, actuate, 2)
//	prob, err := b.Build()
//
// A builder is single-use: the Problem a successful Build returns owns
// what the builder assembled, so every later call on the builder (or on
// its GraphBuilders) changes nothing and makes the next Build fail. A
// Problem is immutable, so one Problem may be solved, encoded and
// submitted from many goroutines at once.
//
// # Solving
//
// A Solver is configured once with functional options and can then
// solve any number of problems:
//
//	solver := ftdse.NewSolver(
//		ftdse.WithStrategy(ftdse.MXR),
//		ftdse.WithMaxIterations(300),
//		ftdse.WithProgress(func(imp ftdse.Improvement) {
//			log.Printf("iter %d: %v", imp.Iteration, imp.Cost)
//		}),
//	)
//	res, err := solver.Solve(ctx, prob)
//
// Solve honors context cancellation and deadlines end-to-end: the
// search polls the context before every scheduling pass (its unit of
// work), so cancellation takes effect within one pass and returns the
// best design found so far, with Result.Stopped recording the cause.
// WithProgress streams every incumbent solution as it is found, making
// the solver usable as an anytime optimizer.
//
// # Search engines
//
// The algorithm that explores the design space is pluggable: WithEngine
// selects among the paper's greedy→tabu pipeline (the default), its
// phases alone, seeded simulated annealing, and a portfolio that races
// engines concurrently and keeps the best design — or any
// caller-supplied Engine written against the Search handle. ParseEngine
// and Engines map the canonical names used by flags and the service
// wire format.
//
//	eng, _ := ftdse.ParseEngine("portfolio") // Portfolio(tabu, sa)
//	res, err := ftdse.NewSolver(ftdse.WithEngine(eng)).Solve(ctx, prob)
//
// # Determinism
//
// An uninterrupted run — context.Background() and no WithTimeLimit —
// is bit-for-bit deterministic: the same problem and options produce
// the same design regardless of WithWorkers, because candidate moves
// are ranked by (cost, move index) rather than by completion order.
// This holds for every engine: stochastic engines derive all
// randomness from WithSeed, and a portfolio selects its winner by
// (cost, racer order) after the race. Timed or canceled runs are
// best-effort anytime results.
//
// Fixed designs can be evaluated without searching via
// Problem.Evaluate, simulated under fault scenarios with RunScenario
// or a Campaign, rendered with the Gantt helpers, and exported with
// WriteSchedule and WriteDesignDOT. The repro/ftdse/bench package
// regenerates the paper's evaluation tables on top of this API.
package ftdse
