package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// DefaultEngine returns the paper's optimization pipeline — greedy
// improvement followed by tabu search (steps 2 and 3 of Figure 6) — as
// a composed engine. It is what a run uses when Options.Engine is nil,
// and it reproduces the pre-engine solver bit for bit.
func DefaultEngine() Engine {
	return PipelineEngine{Label: "default", Stages: []Engine{GreedyEngine{}, TabuEngine{}}}
}

// GreedyEngine is the paper's step 2 (GreedyMPA): repeatedly evaluate
// all moves on the critical path and apply the best one while it
// improves the design. Move evaluation is fanned out by the evaluator;
// the winner is the lowest-index move of minimal cost, exactly as the
// sequential sweep selected it.
type GreedyEngine struct{}

func (GreedyEngine) Name() string { return "greedy" }

func (GreedyEngine) Explore(ctx context.Context, s *Search) error {
	opts := s.Options()
	asgn, cur, curCost := s.Current()
	if cur == nil {
		return errors.New("core: greedy engine needs an evaluated starting design")
	}
	for !stopped(ctx) {
		s.Tick()
		moves := s.Moves(asgn, cur.CriticalPath())
		best := -1
		bestCost := curCost
		for i, r := range s.Evaluate(ctx, asgn, moves) {
			if r.OK && r.Cost.Less(bestCost) {
				best, bestCost = i, r.Cost
			}
		}
		if best < 0 {
			break
		}
		// The sweep costs candidates into scratch arenas and keeps no
		// schedules; materialize the winner's (one extra deterministic
		// scheduling pass per accepted move, amortized over the sweep).
		bestSched, err := s.Materialize(asgn, moves[best])
		if err != nil {
			break
		}
		asgn = moves[best].ApplyTo(asgn)
		cur, curCost = bestSched, bestCost
		s.Publish("greedy", asgn, cur, curCost)
		if opts.StopWhenSchedulable && curCost.Schedulable() {
			break
		}
	}
	return nil
}

// TabuEngine is the paper's step 3 (TabuSearchMPA, Figure 9): a tabu
// search over the critical-path moves with a selective history of Tabu
// and Wait counters, aspiration (tabu moves better than the best-so-far
// are accepted) and diversification (processes that waited longer than
// |Γ| iterations).
type TabuEngine struct{}

func (TabuEngine) Name() string { return "tabu" }

func (TabuEngine) Explore(ctx context.Context, s *Search) error {
	opts := s.Options()
	origins := s.st.origins
	n := len(origins)
	tenure := int(math.Sqrt(float64(n))) + 2 // iterations a moved process stays tabu
	maxIters := opts.MaxIterations
	if maxIters <= 0 {
		maxIters = 50 + 10*n
	}
	diversifyAfter := s.st.merged.NumProcesses() // |Γ|

	tabu := make(map[model.ProcID]int, n)
	wait := make(map[model.ProcID]int, n)

	start, snow, bestCost := s.Current()
	if snow == nil {
		return errors.New("core: tabu engine needs an evaluated starting design")
	}
	xnow := start.Clone()

	iters := 0
	for iters < maxIters && !stopped(ctx) {
		if opts.StopWhenSchedulable && bestCost.Schedulable() {
			break
		}
		iters++
		s.Tick()

		cp := snow.CriticalPath()
		moves := s.Moves(xnow, cp)
		if len(moves) == 0 {
			moves = s.Moves(xnow, origins)
		}
		if len(moves) == 0 {
			break
		}

		type evaluated struct {
			i     int
			c     Cost
			isTab bool
			waits bool
		}
		var all []evaluated
		for i, r := range s.Evaluate(ctx, xnow, moves) {
			if !r.OK {
				continue
			}
			all = append(all, evaluated{
				i:     i,
				c:     r.Cost,
				isTab: tabu[moves[i].proc] > 0,
				waits: wait[moves[i].proc] > diversifyAfter,
			})
		}
		if len(all) == 0 {
			break
		}
		pick := func(filter func(evaluated) bool) *evaluated {
			var best *evaluated
			for i := range all {
				if !filter(all[i]) {
					continue
				}
				if best == nil || all[i].c.Less(best.c) {
					best = &all[i]
				}
			}
			return best
		}
		// Aspiration: any move better than the best-so-far is accepted,
		// tabu or not (line 17 of Figure 9).
		chosen := pick(func(e evaluated) bool { return true })
		if !chosen.c.Less(bestCost) {
			// Otherwise diversify with long-waiting moves (line 18)…
			if w := pick(func(e evaluated) bool { return e.waits && !e.isTab }); w != nil {
				chosen = w
			} else if nt := pick(func(e evaluated) bool { return !e.isTab }); nt != nil {
				// …or take the best non-tabu move (line 19).
				chosen = nt
			}
		}

		// Materialize the chosen move's schedule for the critical path of
		// the next iteration (sweeps keep no schedules).
		sch, err := s.Materialize(xnow, moves[chosen.i])
		if err != nil {
			break
		}
		xnow = moves[chosen.i].ApplyTo(xnow)
		snow = sch
		if chosen.c.Less(bestCost) {
			bestCost = chosen.c
			s.Publish("tabu", xnow, sch, chosen.c)
		}

		// Update the selective history (line 25).
		for _, id := range origins {
			if tabu[id] > 0 {
				tabu[id]--
			}
			wait[id]++
		}
		tabu[moves[chosen.i].proc] = tenure
		wait[moves[chosen.i].proc] = 0
	}
	return nil
}

// SimulatedAnnealingEngine explores the move neighborhood with a
// seeded, deterministic geometric cooling schedule: each iteration
// draws one random critical-path move, always accepts improvements,
// and accepts degradations with probability exp(−Δ/T). Because every
// random draw comes from the explicit seed and move evaluation is
// deterministic, two runs with equal configuration produce identical
// trajectories — so SA results cache and reproduce like the
// deterministic engines.
//
// SA drives its own proposal path rather than Moves, Evaluate and
// Materialize. It keeps the size of each critical-path process's
// neighborhood (the one Moves lists, in the same order), draws an index
// over their total and builds only that move, into a buffer it reuses.
// A step applies the move to SA's private design in place, looks the
// proposal up in the evaluator's memo by a key kept up to date move by
// move, schedules a miss into one arena checked out for the whole run,
// and undoes the move. On acceptance the move's buffer becomes the
// process's policy and the replaced policy's storage the next buffer,
// the new critical path is read into a reused slice, and the
// neighborhood sizes are recounted. A schedule to keep is built only
// for a proposal that beats the incumbent, the only one Publish keeps,
// so no other step allocates. Costs, counters and sweep events are
// those of one Evaluate per step over the Moves list.
//
// The random stream is seeded by Options.Seed (0 selects the fixed seed
// 1). The run takes 8× the iteration budget (Options.MaxIterations, or
// the size-derived default) in steps, because each SA step costs one
// scheduling pass where greedy and tabu sweep a whole neighborhood.
// The start temperature is 5% of the starting design's energy (at
// least 1) and cools by a factor of 0.995 per step.
type SimulatedAnnealingEngine struct{}

// saCooling is SA's per-step geometric cooling factor.
const saCooling = 0.995

func (SimulatedAnnealingEngine) Name() string { return "sa" }

// saEnergy flattens the lexicographic (tardiness, makespan) cost into
// the scalar the acceptance probability needs. The tardiness weight
// keeps feasibility dominant: trading 1 time unit of tardiness is worth
// 1000 units of makespan.
func saEnergy(c Cost) float64 {
	return 1000*float64(c.Tardiness) + float64(c.Makespan)
}

func (SimulatedAnnealingEngine) Explore(ctx context.Context, s *Search) error {
	opts := s.Options()
	cur, sch, cost := s.Current()
	if sch == nil {
		return errors.New("core: sa engine needs an evaluated starting design")
	}

	iters := opts.MaxIterations
	if iters <= 0 {
		iters = 50 + 10*len(s.st.origins)
	}
	iters *= 8
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	ev := s.st.eval
	es := ev.getScratch()
	defer ev.scratch.Put(es)
	a := newAnnealer(s, es.sc, cur, sch, cost, seed)
	for it := 0; it < iters && !stopped(ctx); it++ {
		if !a.step(ctx) {
			break
		}
	}
	return nil
}

// annealer is the working state of one SA run. It owns its design: a
// private copy whose policies keep their replicas in one slab, each
// with room for the widest policy a move can make, so the replica
// buffer a move is built into can become the moved process's policy on
// acceptance and the replaced policy's storage the next buffer.
type annealer struct {
	s    *Search
	sc   *sched.Scratch // the run's arena, from the evaluator's pool
	rng  *rand.Rand
	temp float64

	cur  policy.Assignment
	key  memoKey // cur's memo key, kept move by move
	cost Cost

	// cp is cur's critical path. hoods are the neighborhoods moves are
	// drawn from, those of cp's processes or, when they offer no move,
	// of every origin, and total is their size: recounted (stale) only
	// after cur changes.
	cp    []model.ProcID
	hoods []hood
	total int
	stale bool

	buf []policy.Replica // the next move's replicas
}

func newAnnealer(s *Search, sc *sched.Scratch, cur policy.Assignment, sch *sched.Schedule, cost Cost, seed int64) *annealer {
	origins := s.st.origins
	width := s.st.p.Faults.K + 1
	for _, id := range origins {
		width = max(width, len(cur[id].Replicas))
	}
	slab := make([]policy.Replica, width*(len(origins)+1))
	for i, id := range origins {
		if p, ok := cur[id]; ok {
			cur[id] = policy.Policy{Replicas: append(slab[i*width:i*width:(i+1)*width], p.Replicas...)}
		}
	}
	return &annealer{
		s:     s,
		sc:    sc,
		rng:   rand.New(rand.NewSource(seed)),
		temp:  max(0.05*saEnergy(cost), 1),
		cur:   cur,
		key:   s.st.eval.designKey(cur),
		cost:  cost,
		cp:    sch.AppendCriticalPath(make([]model.ProcID, 0, s.st.merged.NumProcesses())),
		hoods: make([]hood, 0, len(origins)),
		stale: true,
		buf:   slab[len(origins)*width : len(origins)*width],
	}
}

// recount sizes the neighborhoods moves are drawn from: those of the
// critical path, or of every origin when the path offers no move.
func (a *annealer) recount() {
	a.total = a.count(a.cp)
	if a.total == 0 {
		a.total = a.count(a.s.st.origins)
	}
	a.stale = false
}

// count sets hoods to the non-empty neighborhoods of procs and returns
// their total size.
func (a *annealer) count(procs []model.ProcID) int {
	a.hoods = a.hoods[:0]
	total := 0
	for _, id := range procs {
		if h, ok := a.s.st.hoodOf(a.cur, id); ok && h.size > 0 {
			a.hoods = append(a.hoods, h)
			total += h.size
		}
	}
	return total
}

// move builds move j of the draw set, in Moves order, into the replica
// buffer.
func (a *annealer) move(j int) Move {
	h := &a.hoods[0]
	for i := 1; j >= h.size; i++ {
		j -= h.size
		h = &a.hoods[i]
	}
	return Move{proc: h.proc, pol: policy.Policy{Replicas: h.build(a.buf, j)}}
}

// step runs one annealing step: it draws one move of the neighborhood
// uniformly, builds only that move, costs it through the evaluator's
// memo and the run's arena, and accepts it with the Metropolis rule. It
// reports false when the run should end: no move is left, or an
// accepted move met Options.StopWhenSchedulable. Only a new incumbent
// allocates: the schedule Publish keeps.
func (a *annealer) step(ctx context.Context) bool {
	s, ev := a.s, a.s.st.eval
	s.Tick()
	if a.stale {
		a.recount()
	}
	if a.total == 0 {
		return false
	}
	m := a.move(a.rng.Intn(a.total))
	mkey := ev.moveKey(a.key, a.cur, &m)
	r, msch := ev.propose(ctx, a.sc, a.cur, &m, mkey)
	a.temp = max(a.temp*saCooling, 1e-3)
	if !r.OK {
		return true
	}
	delta := saEnergy(r.Cost) - saEnergy(a.cost)
	if delta >= 0 && a.rng.Float64() >= math.Exp(-delta/a.temp) {
		return true
	}
	// Accepted. A new incumbent gets a schedule of its own, built from
	// a private copy of the design that the schedule keeps; otherwise
	// the arena's schedule serves, rebuilt there when the proposal was
	// a memo hit.
	var keep *sched.Schedule
	if s.improves(r.Cost) {
		keep, _, _ = s.st.evaluate(m.ApplyTo(a.cur))
		msch = keep
	} else if msch == nil {
		msch, _ = ev.buildMove(a.sc, a.cur, &m)
	}
	if msch == nil {
		return true // the scheduler rejected a design it costed before
	}
	a.cp = msch.AppendCriticalPath(a.cp[:0])
	a.buf = a.cur[m.proc].Replicas[:0]
	a.cur[m.proc] = m.pol
	a.key, a.cost, a.stale = mkey, r.Cost, true
	if keep != nil {
		s.Publish("sa", a.cur, keep, a.cost)
	}
	return !s.ShouldStop()
}

// PipelineEngine runs its stages sequentially: each stage starts from
// the incumbent the previous stages produced. With StopWhenSchedulable
// set, remaining stages are skipped once the incumbent is schedulable.
// The paper's greedy→tabu strategy is the pipeline DefaultEngine
// returns.
type PipelineEngine struct {
	// Label overrides the composed name ("greedy+tabu") when set.
	Label  string
	Stages []Engine
}

func (p PipelineEngine) Name() string {
	if p.Label != "" {
		return p.Label
	}
	names := make([]string, len(p.Stages))
	for i, e := range p.Stages {
		names[i] = e.Name()
	}
	return strings.Join(names, "+")
}

func (p PipelineEngine) Explore(ctx context.Context, s *Search) error {
	if len(p.Stages) == 0 {
		return errors.New("core: pipeline engine has no stages")
	}
	for _, e := range p.Stages {
		if s.ShouldStop() {
			break
		}
		s.startFromBest()
		s.enterPhase(e.Name())
		if err := e.Explore(ctx, s); err != nil {
			return err
		}
		s.exitPhase(e.Name())
	}
	return nil
}

// PortfolioEngine races its engines concurrently over the same problem,
// each on a forked Search with a private scheduling context and memo
// cache, splitting the configured move-evaluation workers between them.
// Racers exchange incumbents through the shared board: every
// improvement streams to the observer with an "r<i>:" phase prefix, and
// with StopWhenSchedulable the first schedulable incumbent stops the
// whole race.
//
// The winner is selected deterministically after the race — lowest
// cost, ties broken by racer order — so an untimed portfolio returns a
// cost at least as good as its best racer would alone, and returns it
// reproducibly. (Like timed solo runs, a race truncated by a deadline
// or an early stop keeps the best design found but may vary between
// runs in which racer got further.)
type PortfolioEngine struct {
	// Label overrides the composed name ("portfolio(tabu,sa)") when set.
	Label  string
	Racers []Engine
}

func (p PortfolioEngine) Name() string {
	if p.Label != "" {
		return p.Label
	}
	names := make([]string, len(p.Racers))
	for i, e := range p.Racers {
		names[i] = e.Name()
	}
	return "portfolio(" + strings.Join(names, ",") + ")"
}

func (p PortfolioEngine) Explore(ctx context.Context, s *Search) error {
	if len(p.Racers) == 0 {
		return errors.New("core: portfolio engine has no racers")
	}
	if len(p.Racers) == 1 {
		return p.Racers[0].Explore(ctx, s)
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Split the machine: each racer's evaluator gets an equal share of
	// the configured workers so N racers don't oversubscribe N-fold.
	workers := s.Options().Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	per := workers / len(p.Racers)
	if per < 1 {
		per = 1
	}
	// First schedulable incumbent ends the race (incumbent exchange).
	// Registration is per-race, so nested portfolios each get canceled
	// and an enclosing race's hook survives this race ending quietly.
	remove := s.board.addSchedHook(cancel)
	defer remove()

	type outcome struct {
		d   policy.Assignment
		sch *sched.Schedule
		c   Cost
		ok  bool
		err error
	}
	outs := make([]outcome, len(p.Racers))
	var wg sync.WaitGroup
	for i, e := range p.Racers {
		f, err := s.Fork(fmt.Sprintf("r%d:", i), per)
		if err != nil {
			outs[i] = outcome{err: err}
			continue
		}
		wg.Add(1)
		go func(i int, e Engine, f *Search) {
			defer wg.Done()
			f.enterPhase(e.Name())
			err := e.Explore(raceCtx, f)
			f.exitPhase(e.Name())
			d, sch, c, ok := f.Best()
			outs[i] = outcome{d: d, sch: sch, c: c, ok: ok, err: err}
		}(i, e, f)
	}
	wg.Wait()

	win := -1
	var firstErr error
	for i := range outs {
		if outs[i].err != nil {
			if firstErr == nil {
				firstErr = outs[i].err
			}
			continue
		}
		if !outs[i].ok {
			continue
		}
		if win < 0 || outs[i].c.Less(outs[win].c) {
			win = i
		}
	}
	if win < 0 {
		return firstErr
	}
	s.adopt(outs[win].d, outs[win].sch, outs[win].c)
	return nil
}
