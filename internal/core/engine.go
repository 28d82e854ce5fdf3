package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// Engine is a pluggable search algorithm. An engine receives a Search
// handle — the problem's move neighborhood, the memoizing parallel
// evaluator, and the run's incumbent channel — and drives exploration
// however it likes until it converges or the context fires.
//
// The contract an engine must honor:
//
//   - Determinism: with a context that never fires, Explore must be a
//     pure function of the Search state and the engine's own
//     configuration (stochastic engines derive all randomness from an
//     explicit seed). This is what keeps solver results reproducible
//     and the service's result cache sound.
//   - Anytime behavior: Explore must poll ctx at least once per
//     scheduling pass (Search.Evaluate does this internally) and return
//     promptly — never an error — when it fires; the best design found
//     so far survives on the incumbent board.
//   - Incumbents: every strictly-better design must be reported through
//     Search.Publish, which is also what makes it the run's result.
//     Publish never feeds back into the engine's trajectory.
//
// Explore returns an error only when the engine cannot run at all (for
// example a portfolio with no racers); an interrupted or fruitless
// exploration is a normal return.
type Engine interface {
	// Name is the engine's canonical lower-case identifier, used in
	// flag values, the service wire format and metrics.
	Name() string
	// Explore searches from the Search's current working point.
	Explore(ctx context.Context, s *Search) error
}

// board is the incumbent channel shared by every Search of one
// optimization run: it keeps the run-global best so the observer
// stream stays monotone across portfolio racers, serializes observer
// callbacks, and propagates the stop-when-schedulable signal between
// racers.
type board struct {
	start time.Time
	onImp func(Improvement)
	// rec mirrors the run's flight recorder (nil when disabled):
	// run-global incumbent improvements are recorded from the same
	// monotone gate that fires the observer.
	rec *flightRecorder

	mu sync.Mutex
	// best is the best cost any handle has published; the observer only
	// sees strict improvements on it, so the event stream (and the
	// service's SSE relay) is monotone even while racers with private
	// incumbents publish concurrently.
	best    Cost
	hasBest bool
	// schedHooks are fired — all of them, once — when any racer
	// publishes a schedulable incumbent and the run wants to stop at
	// the first schedulable design. Every running portfolio registers
	// its race-cancel here (nested races each keep their own entry),
	// so this is the only cross-racer feedback: it ends races early,
	// it never steers a racer's trajectory.
	schedHooks  map[int]func()
	hookSeq     int
	stopOnSched bool
}

// publish reports one incumbent: the observer fires only when the cost
// improves the run-global best (keeping the stream monotone), while
// the first-schedulable hooks fire regardless of the monotone gate.
// Serialized so portfolio racers can publish concurrently. The design
// is cloned into the Improvement only when the observer actually fires,
// so the observer owns its snapshot and non-improving publishes stay
// allocation-free.
func (b *board) publish(phase string, iter int, d policy.Assignment, c Cost) {
	b.mu.Lock()
	var hooks []func()
	if b.stopOnSched && c.Schedulable() && len(b.schedHooks) > 0 {
		ids := make([]int, 0, len(b.schedHooks))
		for id := range b.schedHooks {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			hooks = append(hooks, b.schedHooks[id])
		}
		b.schedHooks = nil
	}
	if !b.hasBest || c.Less(b.best) {
		b.best, b.hasBest = c, true
		b.rec.record(costEvent(SearchEvent{Kind: EventIncumbent,
			Phase: phase, Iteration: iter}, c))
		if b.onImp != nil {
			b.onImp(Improvement{
				Phase:       phase,
				Iteration:   iter,
				Cost:        c,
				Design:      d.Clone(),
				Schedulable: c.Schedulable(),
				Elapsed:     wallElapsed(b.start),
			})
		}
	}
	b.mu.Unlock()
	for _, h := range hooks {
		h()
	}
}

// addSchedHook registers one first-schedulable hook and returns its
// deregistration func (a no-op once the hooks have fired).
func (b *board) addSchedHook(fn func()) (remove func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.schedHooks == nil {
		b.schedHooks = make(map[int]func())
	}
	b.hookSeq++
	id := b.hookSeq
	b.schedHooks[id] = fn
	return func() {
		b.mu.Lock()
		delete(b.schedHooks, id)
		b.mu.Unlock()
	}
}

// Search is the handle an Engine explores through. It bundles the
// problem's move neighborhood (Moves), the memoizing parallel evaluator
// (Evaluate, Materialize), the run's incumbent board (Publish, Best)
// and a working point (Current) that pipeline stages hand from one
// engine to the next.
//
// A Search is confined to one goroutine: engines that race (Portfolio)
// give each racer its own handle via Fork. Publishing through forked
// handles is safe concurrently; everything else is not.
type Search struct {
	st    *searchState
	board *board
	label string // phase prefix for portfolio racers ("" at top level)

	iter  int           // this handle's iteration counter (Improvement.Iteration)
	total *atomic.Int64 // run-wide tick count across forks (Result.Iterations)

	// Working point: where the next engine (stage) starts exploring.
	cur     policy.Assignment
	curSch  *sched.Schedule
	curCost Cost

	// Local incumbent: the best design this handle has seen. Racers
	// keep private incumbents so the portfolio winner is selected
	// deterministically after the race, not by publish order.
	bestD   policy.Assignment
	bestSch *sched.Schedule
	bestC   Cost
	hasBest bool
}

// newSearch wraps a constructed searchState for one optimization run.
func newSearch(st *searchState, start time.Time) *Search {
	return &Search{
		st: st,
		board: &board{
			start:       start,
			onImp:       st.opts.OnImprovement,
			rec:         st.rec,
			stopOnSched: st.opts.StopWhenSchedulable,
		},
		total: new(atomic.Int64),
	}
}

// enterPhase / exitPhase record the phase brackets of the flight
// recorder: the driver wraps the top-level engine (and the bus step),
// the pipeline wraps each stage, the portfolio each racer. Phases nest
// and racer phases carry their "r<i>:" label prefix, mirroring the
// progress stream. No-ops when the recorder is disabled.
func (s *Search) enterPhase(name string) {
	s.st.rec.record(SearchEvent{Kind: EventPhaseEnter, Phase: s.label + name})
}

func (s *Search) exitPhase(name string) {
	s.st.rec.record(SearchEvent{Kind: EventPhaseExit, Phase: s.label + name,
		Iteration: int(s.total.Load())})
}

// Options returns the run's configuration.
func (s *Search) Options() Options { return s.st.opts }

// Origins returns the (pre-merge) process IDs of the application in
// sorted order — the index set of every Design.
func (s *Search) Origins() []model.ProcID {
	return append([]model.ProcID(nil), s.st.origins...)
}

// Current is the working point the engine starts from: a design, its
// schedule, and its cost. Pipeline stages reset it to the incumbent
// before each engine runs. The returned design is a private copy the
// engine owns — mutating it cannot corrupt the incumbent.
func (s *Search) Current() (policy.Assignment, *sched.Schedule, Cost) {
	return s.cur.Clone(), s.curSch, s.curCost
}

// Best returns this handle's incumbent. ok is false before the first
// Publish (which the driver issues for the initial design, so engines
// always see an incumbent). The returned design is a private copy —
// like Current, mutating it cannot corrupt the incumbent.
func (s *Search) Best() (d policy.Assignment, sch *sched.Schedule, c Cost, ok bool) {
	if !s.hasBest {
		return nil, nil, Cost{}, false
	}
	return s.bestD.Clone(), s.bestSch, s.bestC, true
}

// Moves generates the legal move neighborhood of a design restricted
// to the given processes (typically a schedule's CriticalPath; pass
// Origins for the full neighborhood).
func (s *Search) Moves(d policy.Assignment, procs []model.ProcID) []Move {
	return s.st.generateMoves(d, procs)
}

// Evaluate costs every move against the base design through the
// memoizing parallel evaluator; results are indexed by move position.
// The winner-by-(cost, index) convention keeps results independent of
// the worker count — see Options.Workers for the determinism contract.
//
// Evaluate returns costs only: candidates are scheduled into reusable
// per-worker arenas, so a sweep allocates nothing in steady state.
// Materialize the winning move's schedule with Materialize.
func (s *Search) Evaluate(ctx context.Context, base policy.Assignment, moves []Move) []MoveEval {
	return s.st.eval.evalMoves(ctx, base, moves)
}

// Materialize builds the schedule of a move costed by Evaluate. The
// scheduler is deterministic, so the schedule matches the evaluation
// bit for bit; unlike the sweep's scratch schedules it is freshly
// allocated and safe to retain (Publish it, hand it to the next stage).
func (s *Search) Materialize(base policy.Assignment, m Move) (*sched.Schedule, error) {
	return s.st.eval.rebuild(base, m)
}

// Publish proposes a new incumbent. When c improves on the handle's
// best, the design is adopted and reported on the run's incumbent
// board (phase-prefixed for portfolio racers; the observer fires only
// when the run-global best also improves, so the event stream stays
// monotone across racers), and Publish returns true; otherwise the
// proposal is ignored. Publishing never influences any engine's
// trajectory.
func (s *Search) Publish(phase string, d policy.Assignment, sch *sched.Schedule, c Cost) bool {
	if !s.improves(c) {
		return false
	}
	// Clone defensively: engines may keep mutating their working design
	// after publishing, and the incumbent must not move with it.
	s.bestD, s.bestSch, s.bestC, s.hasBest = d.Clone(), sch, c, true
	s.board.publish(s.label+phase, s.iter, s.bestD, c)
	return true
}

// improves reports whether a design of cost c would become this
// handle's incumbent: the test Publish applies. SA asks it before
// building a schedule to keep, since Publish keeps only an improving
// one.
func (s *Search) improves(c Cost) bool {
	return !s.hasBest || c.Less(s.bestC)
}

// Tick counts one engine iteration for progress reporting and the
// run's Result.Iterations, returning the handle's iteration number.
func (s *Search) Tick() int {
	s.iter++
	s.total.Add(1)
	return s.iter
}

// ShouldStop reports whether the run wants to end because a schedulable
// design was found and Options.StopWhenSchedulable is set. Engines
// should check it after every improvement; the pipeline driver checks
// it between stages.
func (s *Search) ShouldStop() bool {
	return s.st.opts.StopWhenSchedulable && s.hasBest && s.bestC.Schedulable()
}

// startFromBest resets the working point to the incumbent; the pipeline
// driver calls it before each stage.
func (s *Search) startFromBest() {
	if s.hasBest {
		s.cur, s.curSch, s.curCost = s.bestD, s.bestSch, s.bestC
	}
}

// Fork derives an independent handle for one portfolio racer: a private
// scheduling context and memo cache (so racers never contend), a
// private incumbent seeded from the parent's, and the shared incumbent
// board. label prefixes the racer's phases in progress events; workers,
// when positive, overrides the racer's move-evaluation parallelism so
// the portfolio can split the machine between racers.
func (s *Search) Fork(label string, workers int) (*Search, error) {
	opts := s.st.opts
	if workers > 0 {
		opts.Workers = workers
	}
	st, err := newSearchState(s.st.p, opts)
	if err != nil {
		return nil, err
	}
	// Racers share the run's flight recorder: one trace covers the
	// whole race, with phases attributed through the label prefixes.
	st.rec = s.st.rec
	// Labels nest: a racer inside a nested portfolio streams as e.g.
	// "r1:r0:tabu", so phases stay attributable at any depth.
	f := &Search{st: st, board: s.board, label: s.label + label, total: s.total}
	f.cur, f.curSch, f.curCost = s.cur, s.curSch, s.curCost
	f.bestD, f.bestSch, f.bestC, f.hasBest = s.bestD, s.bestSch, s.bestC, s.hasBest
	return f, nil
}

// adopt installs a racer's deterministically selected winning incumbent
// into this handle without re-publishing it (every improvement was
// already streamed when the racer found it).
func (s *Search) adopt(d policy.Assignment, sch *sched.Schedule, c Cost) {
	if !s.improves(c) {
		return
	}
	s.bestD, s.bestSch, s.bestC, s.hasBest = d, sch, c, true
}

// optimizeBus hill-climbs over the TDMA slot order (the final step of
// Figure 6; the paper defers the full treatment to [19]). Adjacent slot
// swaps are evaluated against the incumbent design until no swap
// improves the cost. It runs after the engine because it mutates the
// scheduling context (the bus configuration), which engines share.
func (s *Search) optimizeBus(ctx context.Context) {
	st := s.st
	if !s.hasBest {
		return
	}
	asgn, bestCost := s.bestD, s.bestC
	n := len(st.bus.Slots)
	if n < 2 {
		return
	}
	improved := true
	for improved && !stopped(ctx) {
		improved = false
		// The context is re-checked per swap: each probe is a full
		// scheduling pass, and a round of n−1 swaps would otherwise
		// overshoot a tight time limit by the whole round.
		for i := 0; i+1 < n && !stopped(ctx); i++ {
			perm := make([]int, n)
			for j := range perm {
				perm[j] = j
			}
			perm[i], perm[i+1] = perm[i+1], perm[i]
			saved, savedStatic := st.bus, st.static
			st.bus = st.bus.WithSlotOrder(perm)
			if err := st.rebuildStatic(); err != nil {
				st.bus, st.static = saved, savedStatic
				continue
			}
			sch, c, err := st.evaluate(asgn)
			if err != nil || !c.Less(bestCost) {
				st.bus, st.static = saved, savedStatic
				continue
			}
			bestCost = c
			s.Publish("bus", asgn, sch, c)
			improved = true
		}
	}
}
