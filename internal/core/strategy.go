package core

import (
	"context"
	"fmt"
	"time"

	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// Strategy selects the optimization approach evaluated in Section 6 of
// the paper.
type Strategy int

const (
	// MXR is the paper's contribution: mapping moves plus free policy
	// assignment mixing re-execution and replication.
	MXR Strategy = iota
	// MX considers only re-execution (plus mapping moves).
	MX
	// MR considers only active replication (plus replica remaps).
	MR
	// SFX first derives a mapping ignoring fault tolerance, then applies
	// re-execution on top of it ("straightforward" baseline).
	SFX
	// NFT is the optimized non-fault-tolerant reference implementation
	// (k = 0) against which overheads are measured.
	NFT
)

func (s Strategy) String() string {
	switch s {
	case MXR:
		return "MXR"
	case MX:
		return "MX"
	case MR:
		return "MR"
	case SFX:
		return "SFX"
	case NFT:
		return "NFT"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options tune the optimization run.
type Options struct {
	Strategy Strategy

	// Engine selects the search algorithm that explores the design
	// space after the initial solution; nil selects DefaultEngine (the
	// paper's greedy→tabu pipeline). Engines see the problem through a
	// Search handle, so any Engine implementation — built-in or caller
	// supplied — composes with every Strategy and option.
	Engine Engine

	// Seed seeds stochastic engines (simulated annealing, and any
	// caller-supplied engine that reads it); 0 selects the fixed seed 1,
	// so runs are deterministic either way. Deterministic engines
	// ignore it.
	Seed int64

	// TimeLimit bounds the whole optimization; <= 0 means no time limit
	// (MaxIterations still applies).
	TimeLimit time.Duration

	// MaxIterations bounds the tabu-search iterations; <= 0 selects a
	// size-dependent default.
	MaxIterations int

	// StopWhenSchedulable stops as soon as all deadlines hold in the
	// worst case (the paper's synthesis goal). Disable it to keep
	// minimizing the schedule length, as the evaluation experiments do.
	StopWhenSchedulable bool

	// TabuTenure is the number of iterations a moved process stays tabu;
	// <= 0 selects a size-dependent default.
	TabuTenure int

	// SlackSharing toggles the shared re-execution slack (ablation).
	// The default (via DefaultOptions) is on.
	SlackSharing bool

	// Workers bounds the number of concurrent scheduling passes used to
	// evaluate candidate moves; <= 0 selects runtime.GOMAXPROCS(0).
	// Workers == 1 evaluates moves sequentially on the calling
	// goroutine. Without a TimeLimit the search result is identical for
	// every value: the winning move is selected by (cost, move index)
	// regardless of the order in which workers finish. When a TimeLimit
	// expires mid-sweep, the subset of moves costed before the cutoff
	// depends on evaluation speed — and therefore on the worker count —
	// so timed runs are best-effort anytime results, reproducible only
	// when the budget is generous enough that the limit never strikes.
	Workers int

	// OptimizeBusAccess runs the final bus-access optimization step
	// (slot order hill climbing) after the search.
	OptimizeBusAccess bool

	// EnableCheckpointing adds checkpoint-count moves to the search:
	// re-executed replicas may take up to MaxCheckpoints state-saving
	// points (cost χ each, from the fault model) so a fault re-executes
	// only the hit segment. This is the reproduction's documented
	// extension beyond the paper (DESIGN.md §7); it is off by default.
	EnableCheckpointing bool

	// MaxCheckpoints caps the checkpoints per replica; <= 0 selects 4.
	MaxCheckpoints int

	// WarmStart, when non-empty, seeds the search with a previously
	// found design: it is evaluated right after the initial solution and
	// adopted as the incumbent (and the engines' starting point) when it
	// costs less. The run's result therefore never costs more than the
	// warm-start design — this is the checkpoint/resume guarantee the
	// cluster tier builds on. A warm start that does not fit the problem
	// (unknown processes, unmappable replicas, a policy the fault budget
	// rejects) is skipped silently: warm starts are best-effort hints
	// carried over from *similar* problems, and the cold path must
	// remain available. The run stays deterministic: the same problem,
	// options and warm start always produce the same result. Ignored by
	// SFX, whose design is derived structurally rather than searched.
	WarmStart policy.Assignment

	// FlightRecorder, when positive, enables the search flight recorder
	// with a ring capacity of that many events; once full, the oldest
	// events are overwritten (Trace.Dropped counts them). The recorder
	// is pure observability: it captures phase transitions, incumbents,
	// sweep statistics and the stop cause into Result.Trace without
	// influencing the search, and a zero value (the default) keeps
	// every emission site at a nil check.
	FlightRecorder int

	// OnImprovement, when non-nil, is called synchronously from the
	// search goroutine every time a new incumbent (best-so-far) design
	// is found, including the initial solution. The callback must be
	// fast; it observes the search but must not mutate the problem. It
	// never influences the search trajectory, so untimed runs stay
	// deterministic with or without an observer.
	OnImprovement func(Improvement)
}

// Improvement is one incumbent solution reported through
// Options.OnImprovement: the anytime signal of the search.
type Improvement struct {
	// Phase is the step that produced the incumbent: "initial", "bus",
	// "sfx", or an engine phase ("greedy", "tabu", "sa", …). Portfolio
	// racers prefix their phases with "r<i>:" (racer position), e.g.
	// "r1:sa".
	Phase string
	// Iteration is the improvement-loop iteration of the publishing
	// search handle (pipeline stages accumulate; portfolio racers count
	// independently; 0 for the initial solution).
	Iteration int
	// Cost is the incumbent's cost.
	Cost Cost
	// Design is a private snapshot of the incumbent design — the
	// observer owns it and may retain or mutate it freely. It is what
	// the service's checkpointer serializes so a killed node's solve can
	// resume elsewhere from the incumbent.
	Design policy.Assignment
	// Schedulable reports whether the incumbent meets all deadlines.
	Schedulable bool
	// Elapsed is the time since the optimization started.
	Elapsed time.Duration
}

// StopCause reports why an optimization run ended.
type StopCause int

const (
	// StopCompleted: the search exhausted its iteration budget or
	// converged (including StopWhenSchedulable hits).
	StopCompleted StopCause = iota
	// StopTimeLimit: the context deadline (Options.TimeLimit or a
	// caller-supplied deadline) expired; the result is the best design
	// found so far.
	StopTimeLimit
	// StopCanceled: the caller canceled the context; the result is the
	// best design found so far.
	StopCanceled
)

func (c StopCause) String() string {
	switch c {
	case StopCompleted:
		return "completed"
	case StopTimeLimit:
		return "time limit"
	case StopCanceled:
		return "canceled"
	}
	return fmt.Sprintf("StopCause(%d)", int(c))
}

// stopCause maps the context state at the end of a run to a cause.
func stopCause(ctx context.Context) StopCause {
	switch ctx.Err() {
	case context.Canceled:
		return StopCanceled
	case context.DeadlineExceeded:
		return StopTimeLimit
	}
	return StopCompleted
}

// DefaultOptions returns the paper's configuration for a strategy.
func DefaultOptions(s Strategy) Options {
	return Options{
		Strategy:            s,
		MaxIterations:       0,
		StopWhenSchedulable: false,
		SlackSharing:        true,
	}
}

// Result is the outcome of an optimization run.
type Result struct {
	Strategy Strategy
	// Engine is the name of the search engine that produced the design.
	Engine     string
	Assignment policy.Assignment
	Schedule   *sched.Schedule
	Cost       Cost
	Iterations int
	Elapsed    time.Duration

	// Stopped records why the run ended: a completed search, an expired
	// time limit, or caller cancellation (the design is then the best
	// found before the interruption).
	Stopped StopCause

	// Trace is the flight-recorder capture of the run; nil unless
	// Options.FlightRecorder enabled it.
	Trace *Trace
}

// Optimize runs the paper's OptimizationStrategy (Figure 6) for the
// selected strategy:
//
//	Step 1: B0 = InitialBusAccess; ψ0 = InitialMPA
//	Step 2: ψ  = GreedyMPA(ψ0)
//	Step 3: ψ  = TabuSearchMPA(ψ)
//	finally the optional bus-access optimization.
//
// With StopWhenSchedulable the run returns at the first step that yields
// a schedulable design; otherwise it uses the full budget to minimize
// the worst-case schedule length.
//
// Optimize is the untimed-by-default entry point; it is equivalent to
// OptimizeContext with context.Background().
func Optimize(p Problem, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), p, opts)
}

// OptimizeContext runs the optimization strategy under a context. The
// context is polled before every scheduling pass — the unit of work of
// the search — so cancellation and deadlines take effect within one
// sched.Build call. A positive Options.TimeLimit is merged into the
// context as a deadline relative to the start of the run.
//
// Cancellation is an anytime interruption, not a failure: once the
// initial solution exists, OptimizeContext returns the best design
// found so far with Result.Stopped recording the cause, and a nil
// error. An error is returned only when the problem is invalid or no
// design could be constructed at all.
//
// With a context that never fires (and no TimeLimit), the run takes
// exactly the legacy untimed path: the result is bit-for-bit
// deterministic and independent of Options.Workers.
func OptimizeContext(ctx context.Context, p Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := wallStart()
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opts.TimeLimit))
		defer cancel()
	}

	// The engine is resolved before the first event so run_start can
	// name it.
	eng := opts.Engine
	if eng == nil {
		eng = DefaultEngine()
	}
	var rec *flightRecorder
	if opts.FlightRecorder > 0 {
		rec = newFlightRecorder(opts.FlightRecorder, start)
		rec.record(SearchEvent{Kind: EventRunStart,
			Strategy: opts.Strategy.String(), Engine: eng.Name()})
	}

	// SFX is a two-step pipeline rather than a search of its own: it
	// first searches a mapping while ignoring fault tolerance, then
	// re-executes every process on that mapping (reexecuteMapping). The
	// mapping search is the NFT search run to its full budget, with no
	// warm start (a fault-tolerant design means nothing to it), and
	// unobserved and untraced, since its incumbents are not SFX designs.
	searchOpts := opts
	if opts.Strategy == SFX {
		searchOpts.Strategy = NFT
		searchOpts.StopWhenSchedulable = false
		searchOpts.WarmStart = nil
		searchOpts.OnImprovement = nil
	}
	eff := p
	if searchOpts.Strategy == NFT {
		eff.Faults = fault.None
	}
	st, err := newSearchState(eff, searchOpts)
	if err != nil {
		return nil, err
	}
	// The flight recorder attaches to the search state (sweep events)
	// and, via newSearch, to the incumbent board.
	if opts.Strategy != SFX {
		st.rec = rec
	}

	// Step 1: initial bus access, mapping and policy assignment.
	asgn, err := st.initialMPA()
	if err != nil {
		return nil, err
	}
	best, bestCost, err := st.evaluate(asgn)
	if err != nil {
		return nil, err
	}
	s := newSearch(st, start)
	s.Publish("initial", asgn, best, bestCost)

	// Warm start: adopt a prior incumbent when it beats the initial
	// solution, so a resumed or re-submitted solve continues from where
	// a previous search stood instead of from scratch. Publish's
	// monotone gate makes this safe: a stale or worse warm start is
	// simply ignored, and an invalid one (evaluate fails) falls back to
	// the cold path.
	if len(searchOpts.WarmStart) > 0 && !s.ShouldStop() {
		if wsch, wc, werr := st.evaluate(searchOpts.WarmStart); werr == nil {
			adopted := s.Publish("warmstart", searchOpts.WarmStart, wsch, wc)
			st.rec.record(costEvent(SearchEvent{Kind: EventWarmStart,
				Phase: "warmstart", Adopted: adopted}, wc))
		}
	}

	// Steps 2+3: hand the run to the search engine (the paper's
	// greedy→tabu pipeline unless the caller plugged in another one).
	if !s.ShouldStop() {
		s.startFromBest()
		s.enterPhase(eng.Name())
		if err := eng.Explore(ctx, s); err != nil {
			return nil, err
		}
		s.exitPhase(eng.Name())
	}

	if opts.OptimizeBusAccess {
		s.enterPhase("bus")
		s.optimizeBus(ctx)
		s.exitPhase("bus")
	}

	d, sch, c, _ := s.Best()
	if opts.Strategy == SFX {
		if d, sch, c, err = reexecuteMapping(p, opts, rec, start, d); err != nil {
			return nil, err
		}
	}
	rec.record(costEvent(SearchEvent{Kind: EventRunEnd,
		Iteration: int(s.total.Load()), Cause: stopCause(ctx).String()}, c))
	return &Result{
		Strategy:   opts.Strategy,
		Engine:     eng.Name(),
		Assignment: d,
		Schedule:   sch,
		Cost:       c,
		Iterations: int(s.total.Load()),
		Elapsed:    wallElapsed(start),
		Stopped:    stopCause(ctx),
		Trace:      rec.snapshot(),
	}, nil
}

// reexecuteMapping is the second step of SFX: every process
// re-executes on the node the fault-oblivious search mapped it to,
// scheduled once under the real fault model and the initial bus
// configuration. The design is published as the run's only incumbent.
func reexecuteMapping(p Problem, opts Options, rec *flightRecorder, start time.Time, mapping policy.Assignment) (policy.Assignment, *sched.Schedule, Cost, error) {
	asgn := policy.Assignment{}
	for _, proc := range p.App.Processes() {
		asgn[proc.ID] = policy.Reexecution(mapping[proc.ID].Replicas[0].Node, p.Faults.K)
	}
	st, err := newSearchState(p, opts)
	if err != nil {
		return nil, nil, Cost{}, err
	}
	st.rec = rec
	sch, c, err := st.evaluate(asgn)
	if err != nil {
		return nil, nil, Cost{}, err
	}
	newSearch(st, start).Publish("sfx", asgn, sch, c)
	return asgn, sch, c, nil
}
