package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/ftdse"
	"repro/ftdse/service"
)

// dseSetup describes one design-space-exploration workload.
type dseSetup struct {
	// pattern repeats over the input list: input i has dimension
	// pattern[i%len(pattern)].
	pattern []dim
	// inputs is the length of the input list, enough for a run at the
	// nominal rate with room to spare; a faster run starts over at the
	// beginning.
	inputs int
	// exact is the prefix of the input list every run solves, even past
	// the deadline. The exact counts and makespan_gmean_ms cover it, so
	// they repeat exactly for a seed.
	exact int
	// solver returns the workload's solver; traced runs get the engines
	// wrapped in timedEngine, untraced runs the plain built-in engines.
	solver func(rec *recorder) *ftdse.Solver
	// opts are the service options that request the same solve; the
	// codec, client and fingerprint side timings use them.
	opts service.SolveOptions
}

const tabuIterations = 20

func runDSETabu(cfg runConfig) (*report, error) {
	ds := dseSetup{
		pattern: []dim{{20, 2, 3}, {40, 3, 4}, {60, 4, 5}},
		inputs:  320,
		exact:   96,
		opts:    service.SolveOptions{MaxIterations: tabuIterations, Workers: 2},
	}
	if cfg.size == tinySize {
		ds.pattern, ds.inputs, ds.exact, ds.opts.MaxIterations = []dim{{20, 2, 3}}, 6, 6, 4
	}
	ds.solver = func(rec *recorder) *ftdse.Solver {
		eng := ftdse.DefaultEngine()
		if rec != nil {
			eng = ftdse.PipelineEngine{Label: "default", Stages: []ftdse.Engine{
				timedEngine{ftdse.GreedyEngine{}, rec},
				timedEngine{ftdse.TabuEngine{}, rec},
			}}
		}
		return ftdse.NewSolver(ftdse.WithEngine(eng), ftdse.WithMaxIterations(ds.opts.MaxIterations), ftdse.WithWorkers(2))
	}
	return runDSE(cfg, ds)
}

func runDSEAnneal(cfg runConfig) (*report, error) {
	// Four 20-process applications per 40-process one keep the median
	// well inside the 20-process class instead of on the gap between the
	// classes, where it would jump from seed to seed; the 40-process
	// solves still take most of the time.
	ds := dseSetup{
		pattern: []dim{{20, 2, 3}, {20, 2, 3}, {40, 3, 4}, {20, 2, 3}, {20, 2, 3}},
		inputs:  320,
		exact:   96,
		opts:    service.SolveOptions{Engine: "sa", Seed: 1, Workers: 1},
	}
	if cfg.size == tinySize {
		ds.pattern, ds.inputs, ds.exact = []dim{{20, 2, 3}}, 6, 6
	}
	ds.solver = func(rec *recorder) *ftdse.Solver {
		var eng ftdse.Engine = ftdse.SimulatedAnnealingEngine{}
		if rec != nil {
			eng = timedEngine{eng, rec}
		}
		return ftdse.NewSolver(ftdse.WithEngine(eng), ftdse.WithSeed(1), ftdse.WithWorkers(1))
	}
	return runDSE(cfg, ds)
}

// dseOp is one Solve call of the timed phase.
type dseOp struct {
	input      int
	ms         float64
	at         interval // the timed phase's solves only
	cost       ftdse.Cost
	iterations int
	ev         ftdse.EvaluatorMetrics
	span       int    // traced: the op's solve span
	allocs     uint64 // traced: heap objects allocated during the call
	allocBytes uint64 // traced: heap bytes allocated during the call
}

// solveOnce runs one Solve and measures it. With a recorder it also
// records the solve span and brackets the call with MemStats.
func solveOnce(s *ftdse.Solver, rec *recorder, op int, p ftdse.Problem) (*ftdse.Result, dseOp, error) {
	var d dseOp
	var m0, m1 runtime.MemStats
	ctx := context.Background()
	if rec != nil {
		runtime.ReadMemStats(&m0)
		d.span = rec.begin("solve", op, 0)
		ctx = withSpan(ctx, op, d.span)
	}
	ev0 := ftdse.ReadEvaluatorMetrics()
	t0 := time.Now()
	res, err := s.Solve(ctx, p)
	d.ms = float64(time.Since(t0)) / float64(time.Millisecond)
	d.ev = evalDelta(ev0, ftdse.ReadEvaluatorMetrics())
	if rec != nil {
		rec.end(d.span)
		runtime.ReadMemStats(&m1)
		d.allocs = m1.Mallocs - m0.Mallocs
		d.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	if err == nil {
		d.cost, d.iterations = res.Cost, res.Iterations
	}
	return res, d, err
}

// repeatCheck is how many inputs an untraced run solves a second time
// to check that the solver is deterministic.
const repeatCheck = 6

func runDSE(cfg runConfig, ds dseSetup) (*report, error) {
	rep := &report{metrics: make(map[string]float64)}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}

	// Set-up: generate the inputs.
	var inputs []input
	var setup []float64
	for r := 0; r < setupRuns; r++ {
		inputs = nil
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		inputs = dseInputs(cfg.seed, ds.pattern, ds.inputs)
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Timed phase: one caller runs Solve back to back over the input
	// list until the time is up and the exact prefix is done.
	solver := ds.solver(rec)
	var ops []dseOp
	first := make([]*ftdse.Result, len(inputs))
	firstOp := make([]dseOp, len(inputs))
	ph := startPhase()
	deadline := ph.start.Add(cfg.seconds)
	for i := 0; i < ds.exact || time.Now().Before(deadline); i++ {
		k := i % len(inputs)
		t0 := time.Since(ph.start)
		res, op, err := solveOnce(solver, rec, i+1, inputs[k].problem)
		op.input, op.at = k, interval{t0, time.Since(ph.start)}
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("solve %s: %v", inputs[k].name, err)
			continue
		}
		ops = append(ops, op)
		if first[k] == nil {
			first[k], firstOp[k] = res, op
		}
	}
	ps := ph.stop()

	// Untimed output checks. Every returned design is checked; a second
	// solve of an input (past the end of the list, or the re-solves
	// below) must agree with the first down to the scheduling passes.
	agree := func(k int, op dseOp, what string) {
		f := firstOp[k]
		if op.cost != f.cost || op.iterations != f.iterations || op.ev.SchedulingPasses != f.ev.SchedulingPasses ||
			op.ev.CacheHits != f.ev.CacheHits || op.ev.CacheMisses != f.ev.CacheMisses {
			rep.fail("%s: %s disagree: cost %v/%v, iterations %d/%d, passes %d/%d",
				inputs[k].name, what, f.cost, op.cost, f.iterations, op.iterations,
				f.ev.SchedulingPasses, op.ev.SchedulingPasses)
		}
	}
	for _, op := range ops {
		agree(op.input, op, "repeated solves")
	}
	for k, res := range first {
		if res != nil {
			checkDesign(rep, inputs[k], res)
		}
	}
	// Traced runs re-solve the whole exact prefix untraced: the decorated
	// engines must have changed nothing. Untraced runs re-solve a few.
	resolve, what := min(repeatCheck, ds.exact), "two solves"
	if cfg.traced {
		resolve, what = ds.exact, "traced and untraced solves"
	}
	plain := ds.solver(nil)
	for k := 0; k < resolve; k++ {
		_, op, err := solveOnce(plain, nil, 0, inputs[k].problem)
		if err != nil {
			rep.fail("re-solve of %s: %v", inputs[k].name, err)
			continue
		}
		agree(k, op, what)
	}

	lat := make([]float64, len(ops))
	at := make([]interval, len(ops))
	for i, op := range ops {
		lat[i], at[i] = op.ms, op.at
	}
	var makespans []float64
	for _, res := range first[:ds.exact] {
		if res != nil {
			makespans = append(makespans, float64(res.Cost.Makespan)/float64(ftdse.Millisecond))
		}
	}
	m := rep.metrics
	endToEndMetrics(m, cfg, lat, at, ps, setup)
	m["failed_share"] = failedShare(rep.failed, rep.attempted)
	m["makespan_gmean_ms"] = gmean(makespans)
	rep.note("%d solves of %d inputs in %.2f s; latency_tail_ms is p%g of %d samples (%d beyond it)",
		len(ops), min(len(ops), len(inputs)), ps.wall.Seconds(), cfg.tailP, len(lat), beyond(len(lat), cfg.tailP))

	if cfg.traced {
		if err := dseLayers(rep, ds, inputs, first, firstOp[:ds.exact], ops, ps, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkDesign runs the untimed checks on one returned design: the
// schedule validates, an independent build of the design reproduces
// its cost, and no adversarial fault scenario finishes past the
// analysed worst case δ.
func checkDesign(rep *report, in input, res *ftdse.Result) {
	if err := ftdse.ValidateSchedule(res.Schedule); err != nil {
		rep.fail("%s: schedule invalid: %v", in.name, err)
	}
	sch, err := in.problem.Evaluate(res.Design)
	if err != nil {
		rep.fail("%s: evaluating the returned design: %v", in.name, err)
	} else if sch.Makespan != res.Cost.Makespan || sch.Tardiness != res.Cost.Tardiness {
		rep.fail("%s: rebuilt design costs δ=%v tardiness=%v, solver reported %v",
			in.name, sch.Makespan, sch.Tardiness, res.Cost)
	}
	for i, sc := range ftdse.AdversarialScenarios(res.Schedule) {
		sim := ftdse.RunScenario(res.Schedule, sc)
		if !sim.OK() || sim.Makespan > res.Schedule.Makespan {
			rep.fail("%s: adversarial scenario %d: ok=%t finished %v past δ=%v",
				in.name, i, sim.OK(), sim.Makespan, res.Schedule.Makespan)
		}
	}
}

// dseLayers computes the traced run's per-layer metrics of a dse
// workload.
func dseLayers(rep *report, ds dseSetup, inputs []input, first []*ftdse.Result, firstOp []dseOp, ops []dseOp, ps phaseStats, rec *recorder) error {
	m := rep.metrics
	engineMs := solveLayers(m, rec.snapshot(), ops)
	gcMetrics(m, ps, len(ops))

	// Exact counts come from the exact prefix: repeated solves of an
	// input are identical (checked), so these repeat exactly.
	var iters, passes []float64
	var hits, lookups float64
	for _, op := range firstOp {
		iters = append(iters, float64(op.iterations))
		passes = append(passes, float64(op.ev.SchedulingPasses))
		hits += float64(op.ev.CacheHits)
		lookups += float64(op.ev.CacheHits + op.ev.CacheMisses)
	}
	m["engine.iterations"] = mean(iters)
	m["eval.passes"] = mean(passes)
	m["eval.memo_hit_ratio"] = ratio(hits, lookups)
	var allPasses int64
	for _, op := range ops {
		allPasses += op.ev.SchedulingPasses
	}
	m["eval.pass_us"] = ratio(engineMs*1000, float64(allPasses))
	evalRatios(m, ps.eval, ps)

	var evals []evalCase
	for k, res := range first[:ds.exact] {
		if res != nil {
			evals = append(evals, evalCase{inputs[k].problem, res.Design})
		}
	}
	err := sideTimings(rep, rec, inputs[:ds.exact], evals, ds.opts)
	rep.spans = rec.snapshot()
	return err
}

// solveLayers fills the facade and engine metrics from the solve spans
// of ops, the engine spans under them and the ops' MemStats brackets.
// It returns the engines' total time in ms.
func solveLayers(m map[string]float64, spans []span, ops []dseOp) float64 {
	self := selfMs(spans)
	engines := make(map[int]map[string]float64) // solve span → engine span name → ms
	total := 0.0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "engine.") {
			if engines[s.Parent] == nil {
				engines[s.Parent] = make(map[string]float64)
			}
			engines[s.Parent][s.Name] += s.ms()
			total += s.ms()
		}
	}
	var selfs, allocs, allocMB, greedy, tabu, sa []float64
	for _, op := range ops {
		selfs = append(selfs, self[op.span])
		allocs = append(allocs, float64(op.allocs))
		allocMB = append(allocMB, float64(op.allocBytes)/1e6)
		e := engines[op.span]
		greedy, tabu, sa = append(greedy, e["engine.greedy"]), append(tabu, e["engine.tabu"]), append(sa, e["engine.sa"])
	}
	m["solve.self_ms"] = median(selfs)
	m["solve.allocs"] = mean(allocs)
	m["solve.alloc_mb"] = mean(allocMB)
	m["engine.greedy_ms"] = median(greedy)
	m["engine.tabu_ms"] = median(tabu)
	m["engine.sa_ms"] = median(sa)
	return total
}
