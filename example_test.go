package ftdse_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/ftdse"
)

// Example synthesizes a fault-tolerant implementation of a small
// control application: two processing chains on two nodes, tolerating
// one transient fault per cycle. The solver decides mapping and
// fault-tolerance policies so the 150 ms deadline holds even in the
// worst fault scenario. Untimed runs are deterministic, so the output
// is stable.
func Example() {
	b := ftdse.NewProblem("example").Nodes(2)
	g := b.Graph("loop", ftdse.Ms(200), ftdse.Ms(150))
	sensor := g.Process("Sensor", ftdse.Ms(8), ftdse.Ms(10))
	filter := g.Process("Filter", ftdse.Ms(12), ftdse.Ms(14))
	control := g.Process("Control", ftdse.Ms(20), ftdse.Ms(22))
	actuate := g.Process("Actuate", ftdse.Ms(8), ftdse.Ms(10))
	g.Edge(sensor, filter, 2)
	g.Edge(filter, control, 2)
	g.Edge(control, actuate, 2)
	prob, err := b.Faults(1, ftdse.Ms(5)).Pin(sensor, 0).Build()
	if err != nil {
		log.Fatal(err)
	}

	solver := ftdse.NewSolver(
		ftdse.WithStrategy(ftdse.MXR),
		ftdse.WithMaxIterations(100),
	)
	res, err := solver.Solve(context.Background(), prob)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schedulable: %v\n", res.Schedulable())
	fmt.Printf("worst-case schedule length: %v\n", res.Cost.Makespan)
	for _, p := range prob.Processes() {
		fmt.Printf("%s: %v\n", p.Name, res.Design[p.ID])
	}

	// Output:
	// schedulable: true
	// worst-case schedule length: 73ms
	// Sensor: {N1+1x}
	// Filter: {N1+1x}
	// Control: {N1+1x}
	// Actuate: {N1+1x}
}

// ExampleProblem_Evaluate schedules hand-made designs of the paper's
// Figure 2: one 30 ms process tolerating k=2 transient faults
// (µ=10 ms) by re-execution, by replication, and by re-executed
// replicas. Each line is the process's guaranteed completion in the
// worst fault scenario.
func ExampleProblem_Evaluate() {
	for _, c := range []struct {
		name string
		pol  ftdse.Policy
	}{
		{"re-execution on N1", ftdse.Reexecution(0, 2)},
		{"replicas on N1, N2, N3", ftdse.Replication(0, 1, 2)},
		{"replicas on N1, N2, re-executed", ftdse.ReplicatedReexecution([]ftdse.NodeID{0, 1}, 2)},
	} {
		b := ftdse.NewProblem("fig2").Nodes(3)
		g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(1000))
		p1 := g.Process("P1", ftdse.Ms(30), ftdse.Ms(30), ftdse.Ms(30))
		prob, err := b.Faults(2, ftdse.Ms(10)).Build()
		if err != nil {
			log.Fatal(err)
		}
		s, err := prob.Evaluate(ftdse.Design{p1.ID: c.pol})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %v\n", c.name, s.Makespan)
	}

	// Output:
	// re-execution on N1               110ms
	// replicas on N1, N2, N3           30ms
	// replicas on N1, N2, re-executed  70ms
}

// ExampleProblem_Evaluate_applicationStructure reproduces the paper's
// Figure 3: whether re-execution or replication is the better policy
// depends on the application. On A1 (P1→P2, P3 independent)
// re-execution meets the 160 ms deadline and replication misses it; on
// the chain A2 (P1→P2→P3) replication is the shorter of the two. This
// is why MXR optimizes policies together with the mapping.
func ExampleProblem_Evaluate_applicationStructure() {
	for _, chain := range []bool{false, true} {
		for _, replicate := range []bool{false, true} {
			b := ftdse.NewProblem("fig3").Nodes(2)
			g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(160))
			p1 := g.Process("P1", ftdse.Ms(40), ftdse.Ms(50))
			p2 := g.Process("P2", ftdse.Ms(40), ftdse.Ms(60))
			p3 := g.Process("P3", ftdse.Ms(50), ftdse.Ms(70))
			g.Edge(p1, p2, 4)
			app := "A1"
			if chain {
				g.Edge(p2, p3, 4)
				app = "A2"
			}
			prob, err := b.Faults(1, ftdse.Ms(10)).Build()
			if err != nil {
				log.Fatal(err)
			}

			mode := "re-execution"
			design := ftdse.Design{
				p1.ID: ftdse.Reexecution(0, 1),
				p2.ID: ftdse.Reexecution(0, 1),
				p3.ID: ftdse.Reexecution(1, 1),
			}
			if chain {
				design[p3.ID] = ftdse.Reexecution(0, 1)
			}
			if replicate {
				mode = "replication"
				for _, p := range []ftdse.Proc{p1, p2, p3} {
					design[p.ID] = ftdse.Replication(0, 1)
				}
			}
			s, err := prob.Evaluate(design)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s %-12s δ=%v schedulable=%v\n", app, mode, s.Makespan, s.Schedulable())
		}
	}

	// Output:
	// A1 re-execution δ=150ms schedulable=true
	// A1 replication  δ=180ms schedulable=false
	// A2 re-execution δ=190ms schedulable=false
	// A2 replication  δ=180ms schedulable=false
}

// ExampleRunScenario builds the replica-descendant system of the
// paper's Figure 7 as a fixed design, prints its schedule tables and
// Gantt chart, then executes the tables under every fault scenario of
// the hypothesis. When P2's replica on N1 fails, P3 switches to its
// contingency start (the arrival of P2's output from the replica on
// N2), and every scenario finishes within the analysed bound.
func ExampleRunScenario() {
	// P1 → P2 → P3; P2 actively replicated on both nodes, P1 and P3
	// re-executed on N1; k=1 fault, µ=10 ms.
	b := ftdse.NewProblem("fig7").Nodes(2)
	g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(1000))
	p1 := g.Process("P1", ftdse.Ms(40), ftdse.Ms(40))
	p2 := g.Process("P2", ftdse.Ms(80), ftdse.Ms(80))
	p3 := g.Process("P3", ftdse.Ms(50), ftdse.Ms(50))
	g.Edge(p1, p2, 4)
	g.Edge(p2, p3, 4)
	prob, err := b.Faults(1, ftdse.Ms(10)).Build()
	if err != nil {
		log.Fatal(err)
	}
	s, err := prob.Evaluate(ftdse.Design{
		p1.ID: ftdse.Reexecution(0, 1),
		p2.ID: ftdse.Replication(0, 1),
		p3.ID: ftdse.Reexecution(0, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ftdse.GanttTable(s))
	fmt.Println(ftdse.GanttChart(s, 90))

	ftdse.ForEachScenario(s, func(sc ftdse.Scenario) bool {
		label := "fault-free"
		for id := range sc { // k=1: at most one faulty item
			label = "fault in " + s.Item(id).Inst.Name()
		}
		r := ftdse.RunScenario(s, sc)
		fmt.Printf("%-16s finished at %v, within the %v bound: %v\n",
			label, r.Makespan, s.Makespan, r.OK() && r.Makespan <= s.Makespan)
		return true
	})

	// Output:
	// node N1:
	//   P1                 start      0ms  end     40ms  worst-case     90ms
	//   P2/1               start     40ms  end    120ms  worst-case    170ms
	//   P3                 start    120ms  end    170ms  worst-case    250ms
	// node N2:
	//   P2/2               start    110ms  end    190ms  worst-case    190ms
	// bus MEDL (2 transmissions):
	//   m0:P1                  round   5 slot 0  [   100ms,    110ms)
	//   m1:P2/2                round   9 slot 1  [   190ms,    200ms)
	//
	//        0ms                 62.500ms             125ms                187.500ms       250ms
	//    N1  |P1==========|P2/1=====================|P3==============...........................
	//    N2  ....................................|P2/2======================....................
	//   bus  .................................|mm...........................|mm.................
	//
	// fault-free       finished at 170ms, within the 250ms bound: true
	// fault in P3      finished at 230ms, within the 250ms bound: true
	// fault in P2/2    finished at 170ms, within the 250ms bound: true
	// fault in P2/1    finished at 250ms, within the 250ms bound: true
	// fault in P1      finished at 220ms, within the 250ms bound: true
}

// ExampleCheckpointed shows the reproduction's extension beyond the
// paper: re-execution with checkpoints. A fault then re-executes only
// the segment it hit instead of the whole process, trading χ of
// state-saving overhead per checkpoint against much smaller recovery
// slack. The example sweeps the checkpoint count of a four-stage
// pipeline on one node, then lets the optimizer pick mapping and
// checkpoints itself.
func ExampleCheckpointed() {
	b := ftdse.NewProblem("checkpointing").Nodes(2)
	g := b.Graph("pipeline", ftdse.Ms(1000), ftdse.Ms(500))
	var stages []ftdse.Proc
	for i, name := range []string{"Acquire", "Estimate", "Control", "Actuate"} {
		stages = append(stages, g.Process(name, ftdse.Ms(60), ftdse.Ms(60)))
		if i > 0 {
			g.Edge(stages[i-1], stages[i], 2)
		}
	}
	// k=3 faults, µ=5 ms recovery, χ=2 ms per checkpoint.
	prob, err := b.Faults(3, ftdse.Ms(5)).CheckpointCost(ftdse.Ms(2)).Build()
	if err != nil {
		log.Fatal(err)
	}

	for ck := 0; ck <= 5; ck++ {
		design := ftdse.Design{}
		for _, p := range stages {
			design[p.ID] = ftdse.Checkpointed(0, prob.Faults().K, ck)
		}
		s, err := prob.Evaluate(design)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d checkpoints per stage:       δ=%v\n", ck, s.Makespan)
	}

	plain, err := ftdse.NewSolver(
		ftdse.WithStrategy(ftdse.MX),
		ftdse.WithMaxIterations(300),
	).Solve(context.Background(), prob)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ftdse.NewSolver(
		ftdse.WithStrategy(ftdse.MX),
		ftdse.WithMaxIterations(300),
		ftdse.WithCheckpointing(true),
	).Solve(context.Background(), prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized without checkpoints: δ=%v\n", plain.Cost.Makespan)
	fmt.Printf("optimized with checkpoints:    δ=%v\n", res.Cost.Makespan)
	for _, p := range stages {
		fmt.Printf("  %-8s %v\n", p.Name, res.Design[p.ID])
	}

	// Output:
	// 0 checkpoints per stage:       δ=435ms
	// 1 checkpoints per stage:       δ=353ms
	// 2 checkpoints per stage:       δ=331ms
	// 3 checkpoints per stage:       δ=324ms
	// 4 checkpoints per stage:       δ=323ms
	// 5 checkpoints per stage:       δ=325ms
	// optimized without checkpoints: δ=435ms
	// optimized with checkpoints:    δ=323ms
	//   Acquire  {N1+3x/4c}
	//   Estimate {N1+3x/4c}
	//   Control  {N1+3x/4c}
	//   Actuate  {N1+3x/4c}
}

// restartGreedy is a caller-supplied engine: greedy improvement
// alternated with annealing runs, composed from built-in engines
// through the public Search handle, with no access to solver internals.
type restartGreedy struct{ restarts int }

func (restartGreedy) Name() string { return "restart-greedy" }

func (e restartGreedy) Explore(ctx context.Context, s *ftdse.Search) error {
	var stages []ftdse.Engine
	for i := 0; i < e.restarts; i++ {
		stages = append(stages, ftdse.GreedyEngine{}, ftdse.SimulatedAnnealingEngine{})
	}
	return ftdse.PipelineEngine{Stages: stages}.Explore(ctx, s)
}

// ExampleEngine solves one generated problem with every built-in search
// engine (the paper's greedy→tabu pipeline, its two phases alone,
// simulated annealing, and the portfolio racing tabu against SA), then
// with a custom engine. Same problem, same options, different
// algorithms: the results compare directly.
func ExampleEngine() {
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 16, Nodes: 3, Seed: 4},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})

	var engines []ftdse.Engine
	for _, name := range ftdse.Engines() {
		eng, err := ftdse.ParseEngine(name)
		if err != nil {
			log.Fatal(err)
		}
		engines = append(engines, eng)
	}
	engines = append(engines, restartGreedy{restarts: 3})

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "ENGINE\tCOST\tITERS")
	for _, eng := range engines {
		res, err := ftdse.NewSolver(
			ftdse.WithEngine(eng),
			ftdse.WithMaxIterations(60),
		).Solve(context.Background(), prob)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%v\t%d\n", res.Engine, res.Cost, res.Iterations)
	}
	w.Flush()

	// Output:
	// ENGINE          COST     ITERS
	// default         δ=392ms  63
	// greedy          δ=398ms  3
	// tabu            δ=392ms  60
	// sa              δ=452ms  480
	// portfolio       δ=392ms  540
	// restart-greedy  δ=386ms  1445
}
