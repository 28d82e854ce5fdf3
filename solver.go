package ftdse

import (
	"context"
	"time"

	"repro/ftdse/internal/core"
)

// Solver runs the paper's optimization strategy (initial mapping →
// greedy improvement → tabu search, Figure 6) over a Problem. A Solver
// is configured once with functional options and is immutable
// afterwards: Solve never mutates the solver, every call works on a
// private copy of the configuration, so one Solver is safe for any
// number of concurrent Solve calls from multiple goroutines. Derive
// per-call variants (for example a per-job progress observer) with
// With. The zero configuration (NewSolver with no options) runs MXR
// with the paper's defaults.
type Solver struct {
	opts core.Options
}

// Option configures a Solver.
type Option func(*Solver)

// NewSolver returns a solver with the paper's default configuration
// for MXR, adjusted by the given options.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{opts: core.DefaultOptions(core.MXR)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// With returns a copy of the solver with the given options applied on
// top of the receiver's configuration; the receiver is unchanged. It is
// the concurrency-friendly way to derive per-call configuration — e.g.
// a per-job WithProgress observer — from a shared base solver.
func (s *Solver) With(opts ...Option) *Solver {
	d := &Solver{opts: s.opts}
	for _, o := range opts {
		o(d)
	}
	return d
}

// WithStrategy selects the optimization strategy (default MXR).
func WithStrategy(strat Strategy) Option {
	return func(s *Solver) { s.opts.Strategy = strat }
}

// WithEngine selects the search engine that explores the design space
// after the initial solution; nil (the default) selects DefaultEngine,
// the paper's greedy→tabu pipeline. Built-in engines are available by
// name through ParseEngine; any Engine implementation — including a
// caller-supplied one — composes with every strategy and option.
func WithEngine(e Engine) Option {
	return func(s *Solver) { s.opts.Engine = e }
}

// WithSeed seeds stochastic engines (simulated annealing, and any
// custom engine that reads Options.Seed); 0 (the default) selects the
// fixed seed 1, so runs are deterministic either way. Deterministic
// engines ignore it.
func WithSeed(n int64) Option {
	return func(s *Solver) { s.opts.Seed = n }
}

// WithTimeLimit bounds each Solve call; it is merged into the Solve
// context as a deadline relative to the start of the run. A limit <= 0
// (the default) means no time limit. Timed runs are best-effort anytime
// results; see WithWorkers for the determinism contract.
func WithTimeLimit(d time.Duration) Option {
	return func(s *Solver) { s.opts.TimeLimit = d }
}

// WithMaxIterations bounds the tabu-search iterations (simulated
// annealing takes 8× as many steps); <= 0 selects a
// problem-size-dependent default.
func WithMaxIterations(n int) Option {
	return func(s *Solver) { s.opts.MaxIterations = n }
}

// WithWorkers bounds the concurrent scheduling passes used to evaluate
// candidate moves; 0 (the default) uses all CPUs, 1 evaluates
// sequentially. Uninterrupted runs return bit-identical designs for
// every worker count; only a time limit or cancellation striking
// mid-run makes the outcome speed-dependent.
func WithWorkers(n int) Option {
	return func(s *Solver) { s.opts.Workers = n }
}

// WithBusOptimization toggles the final bus-access optimization step
// (TDMA slot-order hill climbing) after the search.
func WithBusOptimization(on bool) Option {
	return func(s *Solver) { s.opts.OptimizeBusAccess = on }
}

// WithCheckpointing toggles checkpoint-count moves, the reproduction's
// documented extension beyond the paper: re-executed replicas may save
// state at up to 4 points (cost χ each, from
// ProblemBuilder.CheckpointCost) so a fault re-executes only the hit
// segment.
func WithCheckpointing(on bool) Option {
	return func(s *Solver) { s.opts.EnableCheckpointing = on }
}

// WithStopWhenSchedulable stops at the first design meeting all
// deadlines (the synthesis goal) instead of minimizing the schedule
// length with the full budget (the evaluation protocol; the default).
func WithStopWhenSchedulable(on bool) Option {
	return func(s *Solver) { s.opts.StopWhenSchedulable = on }
}

// WithSlackSharing toggles the shared re-execution slack of the
// schedule analysis (on by default; disable for ablations).
func WithSlackSharing(on bool) Option {
	return func(s *Solver) { s.opts.SlackSharing = on }
}

// WithProgress registers an observer that is called synchronously from
// the search goroutine for every new incumbent solution, including the
// initial one — the solver's anytime interface. The callback must be
// fast and must not mutate the problem; it never influences the search
// trajectory, so observed runs stay deterministic.
func WithProgress(fn func(Improvement)) Option {
	return func(s *Solver) { s.opts.OnImprovement = fn }
}

// WithWarmStart seeds the search with a previously found design: it is
// evaluated right after the initial solution and adopted as the
// incumbent (and the engines' starting point) when it costs less, so
// the result never costs more than a valid warm start. A design that
// does not fit the problem (unknown processes or nodes, missing
// processes) is skipped silently — the solve degrades to a cold start
// rather than failing. The warm start never influences anything but
// the starting point, so solves stay deterministic given the same
// problem, options and warm-start design. SFX ignores it (its design
// is derived structurally, not searched). An empty or nil design is a
// no-op.
func WithWarmStart(d Design) Option {
	return func(s *Solver) { s.opts.WarmStart = d.Clone() }
}

// Solve runs the optimization strategy on the problem under the given
// context. Solve is read-only on the Solver: the configuration is
// copied into the run, so concurrent Solve calls on one Solver (even on
// the same Problem) are safe and independent.
//
// The context is honored end-to-end: the search polls it before every
// scheduling pass (its unit of work), so cancellation or an expired
// deadline takes effect within one pass. Interruption is not an error —
// once an initial design exists, Solve returns the best design found so
// far with Result.Stopped set to StopCanceled or StopTimeLimit. An
// error is returned only for invalid problems.
//
// With context.Background() and no WithTimeLimit, Solve is bit-for-bit
// deterministic and independent of WithWorkers.
func (s *Solver) Solve(ctx context.Context, p Problem) (*Result, error) {
	res, err := core.OptimizeContext(ctx, p.core, s.opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:   res.Strategy,
		Engine:     res.Engine,
		Design:     res.Assignment,
		Schedule:   res.Schedule,
		Cost:       res.Cost,
		Iterations: res.Iterations,
		Elapsed:    res.Elapsed,
		Stopped:    res.Stopped,
		Trace:      res.Trace,
	}, nil
}

// Result is the outcome of one Solve run.
type Result struct {
	// Strategy that produced the design.
	Strategy Strategy
	// Engine is the name of the search engine that produced the design
	// ("default" for the paper pipeline).
	Engine string
	// Design is the synthesized mapping and fault-tolerance policy
	// assignment — the best found within the budget.
	Design Design
	// Schedule is the design's implementation: static schedule tables,
	// bus MEDL, and the worst-case analysis.
	Schedule *Schedule
	// Cost is the design's cost (tardiness, then schedule length).
	Cost Cost
	// Iterations is the number of improvement-loop iterations run.
	Iterations int
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
	// Stopped records why the run ended (completed, time limit, or
	// canceled).
	Stopped StopCause
	// Trace is the flight-recorder capture of the run; nil unless
	// WithFlightRecorder enabled it.
	Trace *Trace
}

// Schedulable reports whether the synthesized design meets all
// deadlines in the worst case.
func (r *Result) Schedulable() bool { return r.Cost.Schedulable() }
