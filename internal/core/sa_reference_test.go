package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/ftdse/internal/core"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/gen"
	"repro/ftdse/internal/model"
)

// referenceSA is the simulated-annealing loop as it was before SA got a
// proposal path of its own, written against the public Search API only:
// one Evaluate per step, and Materialize, ApplyTo and Publish on every
// accepted move. Its step budget, seed, start temperature, cooling
// factor and energy are SimulatedAnnealingEngine's documented ones.
type referenceSA struct{}

func (referenceSA) Name() string { return "sa" }

func (referenceSA) Explore(ctx context.Context, s *core.Search) error {
	opts := s.Options()
	cur, sch, cost := s.Current()
	if sch == nil {
		return errors.New("referenceSA needs an evaluated starting design")
	}
	base := opts.MaxIterations
	if base <= 0 {
		base = 50 + 10*len(s.Origins())
	}
	iters := 8 * base
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	energy := func(c core.Cost) float64 { return 1000*float64(c.Tardiness) + float64(c.Makespan) }
	temp := max(0.05*energy(cost), 1)

	var moves []core.Move
	stale := true
	for it := 0; it < iters && ctx.Err() == nil; it++ {
		s.Tick()
		if stale {
			moves = s.Moves(cur, sch.CriticalPath())
			if len(moves) == 0 {
				moves = s.Moves(cur, s.Origins())
			}
			stale = false
		}
		if len(moves) == 0 {
			break
		}
		m := moves[rng.Intn(len(moves))]
		ev := s.Evaluate(ctx, cur, []core.Move{m})[0]
		temp *= 0.995
		if temp < 1e-3 {
			temp = 1e-3
		}
		if !ev.OK {
			continue
		}
		delta := energy(ev.Cost) - energy(cost)
		if delta >= 0 && rng.Float64() >= math.Exp(-delta/temp) {
			continue
		}
		nsch, err := s.Materialize(cur, m)
		if err != nil {
			continue
		}
		cur, sch, cost = m.ApplyTo(cur), nsch, ev.Cost
		stale = true
		s.Publish("sa", cur, sch, cost)
		if s.ShouldStop() {
			break
		}
	}
	return nil
}

// saRun is one solve's observable outcome: the result, the observer
// stream (elapsed stamps cleared), the evaluator counter deltas and the
// heap allocations it made.
type saRun struct {
	res     *core.Result
	stream  []core.Improvement
	passes  int64
	hits    int64
	misses  int64
	mallocs uint64
}

func solveSA(t *testing.T, p core.Problem, opts core.Options) saRun {
	t.Helper()
	var r saRun
	opts.OnImprovement = func(imp core.Improvement) {
		imp.Elapsed = 0
		r.stream = append(r.stream, imp)
	}
	var m0, m1 runtime.MemStats
	before := core.ReadEvaluatorMetrics()
	runtime.ReadMemStats(&m0)
	res, err := core.Optimize(p, opts)
	runtime.ReadMemStats(&m1)
	after := core.ReadEvaluatorMetrics()
	if err != nil {
		t.Fatalf("Optimize(%s): %v", opts.Engine.Name(), err)
	}
	r.res = res
	r.passes = after.SchedulingPasses - before.SchedulingPasses
	r.hits = after.CacheHits - before.CacheHits
	r.misses = after.CacheMisses - before.CacheMisses
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r
}

// TestSimulatedAnnealingMatchesReference holds SimulatedAnnealingEngine
// to referenceSA on generated problems across the MXR, MX and MR
// strategies, bus optimisation and checkpointing on and off, deadlines
// that make the search trade tardiness, early stops and
// portfolio(tabu, sa) races: equal cost, design and iterations, equal
// scheduling passes and memo hits and misses, and, for solo runs, an
// equal observer stream and flight record (elapsed stamps aside). A
// race's observer stream interleaves its racers by timing, so races
// compare results and counters only. On a solve shaped like the
// dse-anneal benchmark's, the engine must also allocate at most 0.15×
// as many objects as referenceSA.
func TestSimulatedAnnealingMatchesReference(t *testing.T) {
	strategies := []core.Strategy{core.MXR, core.MX, core.MR}
	for i := 0; i < 36; i++ {
		// One node more than MR's k+1 replicas need, so every strategy
		// has moves to make.
		k := 1 + i/2%2
		spec := gen.Spec{
			Procs: 10 + 5*(i/3%3),
			Nodes: k + 2,
			Shape: gen.Shape(i / 4 % 3),
			Seed:  int64(300 + i),
		}
		switch {
		case i%8 == 5:
			// With StopWhenSchedulable: loose enough to be met mid-search.
			spec.Deadline = model.Ms(int64(30 * spec.Procs))
		case i%4 == 1:
			// Tight enough that the search trades tardiness throughout.
			spec.Deadline = model.Ms(int64(15 * spec.Procs))
		}
		p := gen.Problem(spec, fault.Model{K: k, Mu: model.Ms(5)})

		opts := core.DefaultOptions(strategies[i%3])
		opts.MaxIterations = 15
		opts.Seed = int64(i + 1)
		opts.Workers = 1
		opts.OptimizeBusAccess = i%2 == 0
		opts.EnableCheckpointing = i/6%2 == 0
		opts.StopWhenSchedulable = i%8 == 5
		race := i%7 == 3
		if !race {
			opts.FlightRecorder = core.DefaultFlightRecorderEvents
		}
		name := fmt.Sprintf("case%d/%v/bus=%v/ckpt=%v/race=%v", i, opts.Strategy,
			opts.OptimizeBusAccess, opts.EnableCheckpointing, race)
		engine := func(sa core.Engine) core.Engine {
			if race {
				return core.PortfolioEngine{Racers: []core.Engine{core.TabuEngine{}, sa}}
			}
			return sa
		}
		opts.Engine = engine(referenceSA{})
		want := solveSA(t, p, opts)
		opts.Engine = engine(core.SimulatedAnnealingEngine{})
		got := solveSA(t, p, opts)
		compareSA(t, name, got, want, !race)
	}

	// Allocation gate, on a solve shaped like the dse-anneal benchmark's:
	// 20 processes, k = 3, the default step budget, one worker.
	p := gen.Problem(gen.Spec{Procs: 20, Nodes: 3, Seed: 821}, fault.Model{K: 3, Mu: model.Ms(5)})
	opts := core.DefaultOptions(core.MXR)
	opts.Workers = 1
	opts.Engine = referenceSA{}
	want := solveSA(t, p, opts)
	opts.Engine = core.SimulatedAnnealingEngine{}
	got := solveSA(t, p, opts)
	compareSA(t, "dse-anneal shape", got, want, true)
	t.Logf("dse-anneal shape: allocated %d objects, reference %d (ratio %.2f)",
		got.mallocs, want.mallocs, float64(got.mallocs)/float64(want.mallocs))
	if float64(got.mallocs) > 0.15*float64(want.mallocs) {
		t.Errorf("SA allocated %d objects, more than 0.15× the reference's %d", got.mallocs, want.mallocs)
	}
}

func compareSA(t *testing.T, name string, got, want saRun, streams bool) {
	t.Helper()
	if got.res.Cost != want.res.Cost || got.res.Iterations != want.res.Iterations {
		t.Errorf("%s: cost/iterations %v/%d, reference %v/%d", name,
			got.res.Cost, got.res.Iterations, want.res.Cost, want.res.Iterations)
	}
	if !reflect.DeepEqual(got.res.Assignment, want.res.Assignment) {
		t.Errorf("%s: design differs from the reference", name)
	}
	if got.passes != want.passes || got.hits != want.hits || got.misses != want.misses {
		t.Errorf("%s: passes/hits/misses %d/%d/%d, reference %d/%d/%d", name,
			got.passes, got.hits, got.misses, want.passes, want.hits, want.misses)
	}
	if !streams {
		return
	}
	if !reflect.DeepEqual(got.stream, want.stream) {
		t.Errorf("%s: observer stream differs from the reference:\n got %+v\nwant %+v",
			name, got.stream, want.stream)
	}
	if !reflect.DeepEqual(stripElapsed(got.res.Trace), stripElapsed(want.res.Trace)) {
		t.Errorf("%s: flight record differs from the reference", name)
	}
}

func stripElapsed(tr *core.Trace) []core.SearchEvent {
	if tr == nil {
		return nil
	}
	out := append([]core.SearchEvent(nil), tr.Events...)
	for i := range out {
		out[i].ElapsedMs = 0
	}
	return out
}
