package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// solveWith runs one optimization with the given engine (nil = default).
func solveWith(t *testing.T, p Problem, eng Engine, tune func(*Options)) *Result {
	t.Helper()
	opts := DefaultOptions(MXR)
	opts.MaxIterations = 40
	opts.Engine = eng
	if tune != nil {
		tune(&opts)
	}
	res, err := Optimize(p, opts)
	if err != nil {
		t.Fatalf("Optimize(%v): %v", engName(eng), err)
	}
	return res
}

func engName(e Engine) string {
	if e == nil {
		return "<default>"
	}
	return e.Name()
}

// TestDefaultEngineIsGoldenPipeline pins the refactor's central
// guarantee: a run with no engine configured, a run with the named
// "default" engine, and a run with an explicitly composed greedy→tabu
// pipeline all produce the identical Result — same design, cost and
// iteration count.
func TestDefaultEngineIsGoldenPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		p := randomProblem(rng, 12, 3, 2)
		base := solveWith(t, p, nil, nil)
		if base.Engine != "default" {
			t.Fatalf("nil engine reports %q, want default", base.Engine)
		}
		named := solveWith(t, p, DefaultEngine(), nil)
		composed := solveWith(t, p, PipelineEngine{Stages: []Engine{GreedyEngine{}, TabuEngine{}}}, nil)
		for name, res := range map[string]*Result{"named": named, "composed": composed} {
			if !reflect.DeepEqual(base.Assignment, res.Assignment) {
				t.Errorf("trial %d: %s engine diverges from default in design", trial, name)
			}
			if base.Cost != res.Cost || base.Iterations != res.Iterations {
				t.Errorf("trial %d: %s engine: cost/iters %v/%d, want %v/%d",
					trial, name, res.Cost, res.Iterations, base.Cost, base.Iterations)
			}
		}
	}
}

// TestEnginesProduceValidDesigns runs every built-in engine across
// every strategy and validates the synthesized schedules.
func TestEnginesProduceValidDesigns(t *testing.T) {
	engines := []Engine{
		GreedyEngine{},
		TabuEngine{},
		SimulatedAnnealingEngine{},
		DefaultEngine(),
		PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}},
	}
	p := diamondProblem(t, 1, 0)
	for _, eng := range engines {
		for _, s := range []Strategy{MXR, MX, MR, SFX, NFT} {
			res := solveWith(t, p, eng, func(o *Options) { o.Strategy = s })
			if res.Schedule == nil || len(res.Assignment) == 0 {
				t.Fatalf("%s/%v: empty result", eng.Name(), s)
			}
			if res.Stopped != StopCompleted {
				t.Errorf("%s/%v: stopped %v, want completed", eng.Name(), s, res.Stopped)
			}
		}
	}
}

// TestSimulatedAnnealingDeterministicPerSeed: equal seeds reproduce the
// run bit for bit; a different seed is allowed to (and here does)
// explore a different trajectory.
func TestSimulatedAnnealingDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 12, 3, 2)
	seed5 := func(o *Options) { o.Seed = 5 }
	a := solveWith(t, p, SimulatedAnnealingEngine{}, seed5)
	b := solveWith(t, p, SimulatedAnnealingEngine{}, seed5)
	if !reflect.DeepEqual(a.Assignment, b.Assignment) || a.Cost != b.Cost || a.Iterations != b.Iterations {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.Cost, a.Iterations, b.Cost, b.Iterations)
	}
}

// TestSimulatedAnnealingImprovesOnInitial: SA must at least return the
// initial design and normally improves on it.
func TestSimulatedAnnealingImprovesOnInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng, 12, 3, 2)
	sa := solveWith(t, p, SimulatedAnnealingEngine{}, nil)
	if sa.Schedule == nil {
		t.Fatal("no schedule")
	}
	// Greedy-only is a cheap baseline for "did SA move at all".
	greedy := solveWith(t, p, GreedyEngine{}, nil)
	if greedy.Cost.Less(sa.Cost) && sa.Iterations == 0 {
		t.Fatalf("SA never iterated: %v vs greedy %v", sa.Cost, greedy.Cost)
	}
}

// TestPortfolioAtLeastAsGoodAsRacers pins the acceptance criterion:
// an untimed Portfolio(tabu, sa) returns a cost no worse than the best
// of its racers run alone, and does so deterministically.
func TestPortfolioAtLeastAsGoodAsRacers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		p := randomProblem(rng, 10+2*trial, 3, 2)
		tabu := solveWith(t, p, TabuEngine{}, nil)
		sa := solveWith(t, p, SimulatedAnnealingEngine{}, nil)
		port := solveWith(t, p, PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}}, nil)

		single := tabu.Cost
		if sa.Cost.Less(single) {
			single = sa.Cost
		}
		if single.Less(port.Cost) {
			t.Errorf("trial %d: portfolio %v worse than best single %v", trial, port.Cost, single)
		}
		again := solveWith(t, p, PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}}, nil)
		if !reflect.DeepEqual(port.Assignment, again.Assignment) || port.Cost != again.Cost {
			t.Errorf("trial %d: portfolio result not deterministic", trial)
		}
	}
}

// TestPortfolioWinnerTieBreaksByRacerOrder: racing an engine against
// itself ties on cost, and the deterministic selection must keep the
// first racer's design — which equals the solo run's design.
func TestPortfolioWinnerTieBreaksByRacerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randomProblem(rng, 10, 3, 2)
	solo := solveWith(t, p, TabuEngine{}, nil)
	port := solveWith(t, p, PortfolioEngine{Racers: []Engine{TabuEngine{}, TabuEngine{}}}, nil)
	if !reflect.DeepEqual(solo.Assignment, port.Assignment) || solo.Cost != port.Cost {
		t.Fatalf("self-race diverged from solo run: %v vs %v", port.Cost, solo.Cost)
	}
}

// TestPortfolioStreamsPrefixedIncumbents: racer improvements arrive on
// the shared board with their racer prefix, and the observer never
// sees a cost regression from any single racer's stream.
func TestPortfolioStreamsPrefixedIncumbents(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomProblem(rng, 12, 3, 2)
	var phases []string
	solveWith(t, p, PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}},
		func(o *Options) {
			o.OnImprovement = func(imp Improvement) { phases = append(phases, imp.Phase) }
		})
	if len(phases) == 0 || phases[0] != "initial" {
		t.Fatalf("phases = %v, want initial first", phases)
	}
	sawRacer := false
	for _, ph := range phases[1:] {
		if ph == "r0:tabu" || ph == "r1:sa" {
			sawRacer = true
		}
	}
	if !sawRacer {
		t.Errorf("no racer-prefixed phase in %v", phases)
	}
}

// TestPortfolioCancellationReturnsBestSoFar: canceling mid-race still
// yields a design (the anytime contract holds through forks).
func TestPortfolioCancellationReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := randomProblem(rng, 14, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions(MXR)
	opts.MaxIterations = 2000
	opts.Engine = PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}}
	opts.OnImprovement = func(Improvement) { cancel() } // fire at the initial incumbent
	res, err := OptimizeContext(ctx, p, opts)
	if err != nil {
		t.Fatalf("OptimizeContext: %v", err)
	}
	if res.Schedule == nil {
		t.Fatal("canceled portfolio lost its best-so-far design")
	}
	if res.Stopped != StopCanceled {
		t.Errorf("stopped %v, want canceled", res.Stopped)
	}
}

// TestPipelineAndPortfolioRejectEmpty: composite engines with nothing
// to run fail loudly instead of silently returning the initial design.
func TestPipelineAndPortfolioRejectEmpty(t *testing.T) {
	p := diamondProblem(t, 1, 0)
	for _, eng := range []Engine{PipelineEngine{}, PortfolioEngine{}} {
		opts := DefaultOptions(MXR)
		opts.Engine = eng
		if _, err := Optimize(p, opts); err == nil {
			t.Errorf("%T: empty composite engine did not error", eng)
		}
	}
}

// TestEngineNames pins the canonical names used by flags, the service
// wire format and metrics.
func TestEngineNames(t *testing.T) {
	want := map[string]Engine{
		"default":            DefaultEngine(),
		"greedy":             GreedyEngine{},
		"tabu":               TabuEngine{},
		"sa":                 SimulatedAnnealingEngine{},
		"greedy+tabu":        PipelineEngine{Stages: []Engine{GreedyEngine{}, TabuEngine{}}},
		"portfolio(tabu,sa)": PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}},
	}
	for name, eng := range want {
		if eng.Name() != name {
			t.Errorf("Name() = %q, want %q", eng.Name(), name)
		}
	}
}

// TestPortfolioObserverStreamMonotone: the board relays an improvement
// to the observer only when it beats the run-global best, so even
// concurrent racers with private incumbents produce a monotone event
// stream (the contract the service's SSE relay republishes).
func TestPortfolioObserverStreamMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		p := randomProblem(rng, 12, 3, 2)
		var mu sync.Mutex
		var costs []Cost
		solveWith(t, p, PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}},
			func(o *Options) {
				o.OnImprovement = func(imp Improvement) {
					mu.Lock()
					costs = append(costs, imp.Cost)
					mu.Unlock()
				}
			})
		for i := 1; i < len(costs); i++ {
			if !costs[i].Less(costs[i-1]) {
				t.Fatalf("trial %d: observer stream not monotone: %v then %v", trial, costs[i-1], costs[i])
			}
		}
	}
}

// TestNestedPortfolioStopWhenSchedulable: the first schedulable
// incumbent must stop every registered race, including an enclosing
// one — the board keeps one hook per running portfolio, not a single
// slot the innermost race would consume.
func TestNestedPortfolioStopWhenSchedulable(t *testing.T) {
	// Pick a deadline between the initial design's makespan and the
	// optimum, so the run starts unschedulable (the engines must
	// actually explore) but a schedulable design exists.
	probe := diamondProblem(t, 1, 0)
	var initial Cost
	res := solveWith(t, probe, nil, func(o *Options) {
		o.OnImprovement = func(imp Improvement) {
			if imp.Phase == "initial" {
				initial = imp.Cost
			}
		}
	})
	if res.Cost.Makespan >= initial.Makespan {
		t.Skipf("search does not improve the initial design (%v vs %v)", res.Cost, initial)
	}
	deadline := (res.Cost.Makespan + initial.Makespan) / 2

	p := diamondProblem(t, 1, deadline)
	nested := PortfolioEngine{Racers: []Engine{
		PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}},
		TabuEngine{},
	}}
	got := solveWith(t, p, nested, func(o *Options) {
		o.StopWhenSchedulable = true
		o.MaxIterations = 100000 // the early stop, not the budget, must end the run
	})
	if !got.Cost.Schedulable() {
		t.Fatalf("nested early-stop race returned unschedulable %v", got.Cost)
	}
	if got.Iterations >= 100000 {
		t.Fatalf("race was not stopped early: %d iterations", got.Iterations)
	}
}
