package core

import (
	"context"
	"crypto/sha256"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// MoveEval is the outcome of evaluating one candidate move: the cost of
// the assignment with the move applied. OK is false when the scheduler
// rejected the move or the context fired before the move could be
// evaluated.
//
// A MoveEval carries no schedule: the hot path schedules candidates
// into per-worker scratch arenas (allocation-free, never retained) and
// the memo cache keeps only costs. Callers materialize the schedule of
// the (rare) winning move with Search.Materialize.
type MoveEval struct {
	Cost Cost
	OK   bool
}

// cachedCost is the memoized part of a MoveEval.
type cachedCost struct {
	c  Cost
	ok bool
}

// fingerprint is the fixed-size cache key of an assignment: a SHA-256
// over its canonical serialization. Hashing keeps the memo table at
// ~40 bytes per entry regardless of application size (the serialized
// form is O(processes × replicas) bytes, which at paper scale would
// retain hundreds of megabytes over a long tabu run).
type fingerprint [sha256.Size]byte

// maxCacheEntries bounds the memo table within one bus configuration;
// beyond it new results are still returned but no longer remembered.
// 2^20 entries (~40 MB) is far above any configured search budget.
const maxCacheEntries = 1 << 20

// evaluator runs the per-move scheduling passes shared by every engine.
// Moves are fanned out over a bounded worker pool and results are
// memoized by assignment fingerprint, so a search loop never
// re-schedules an assignment it has already costed.
//
// Concurrent evaluation relies on the read-only invariants of the
// scheduling context: the merged graph (frozen by sched.NewStatic), the
// architecture, the WCET table, the bus configuration and the
// precomputed sched.Static are all shared across workers and must not
// be mutated while evalMoves runs. Each worker costs candidates through
// a private evalScratch — a reusable working assignment plus a
// sched.Scratch arena — so the hot path is allocation-free in steady
// state and no mutable state crosses goroutines.
type evaluator struct {
	st      *searchState
	workers int

	cache map[fingerprint]cachedCost
	buf   []byte // scratch for fingerprint serialization
	// hits/misses instrument the memoization for tests and tuning.
	hits, misses int

	// scratch pools the per-worker evaluation arenas. A sync.Pool (not a
	// fixed per-worker array) because sweeps spawn min(workers, pending)
	// goroutines and sequential sweeps run on the caller's goroutine.
	scratch sync.Pool
}

// evalScratch is one worker's reusable evaluation state: the candidate
// assignment (the base with one move substituted, rebuilt by shallow
// copy per candidate — safe because scheduling never mutates policies)
// and the schedule arena.
type evalScratch struct {
	asgn policy.Assignment
	sc   *sched.Scratch
	used bool // set after the first checkout, for the reuse counter
}

// getScratch checks a worker arena out of the pool, counting reuses so
// the scratch-pool effectiveness is observable (see EvaluatorMetrics).
func (ev *evaluator) getScratch() *evalScratch {
	es := ev.scratch.Get().(*evalScratch)
	if es.used {
		evalMetrics.scratchReuses.Add(1)
	} else {
		es.used = true
	}
	return es
}

func newEvaluator(st *searchState, workers int) *evaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := &evaluator{st: st, workers: workers, cache: make(map[fingerprint]cachedCost)}
	ev.scratch.New = func() any {
		evalMetrics.scratchAllocs.Add(1)
		return &evalScratch{asgn: policy.Assignment{}, sc: sched.NewScratch()}
	}
	return ev
}

// invalidate drops the memoized results. Called whenever the bus
// configuration changes: the fingerprint covers only the assignment, so
// cached costs are valid for a single scheduling context.
func (ev *evaluator) invalidate() {
	clear(ev.cache)
}

// fingerprint serializes the assignment with pol substituted for proc
// in the sorted origin order — so equal assignments always produce
// equal serializations — and hashes it into a fixed-size key.
func (ev *evaluator) fingerprint(base policy.Assignment, proc model.ProcID, pol policy.Policy) fingerprint {
	buf := ev.buf[:0]
	for _, id := range ev.st.origins {
		p, ok := base[id]
		if id == proc {
			p, ok = pol, true
		}
		if !ok {
			buf = append(buf, '-', '|')
			continue
		}
		for _, r := range p.Replicas {
			buf = strconv.AppendInt(buf, int64(r.Node), 10)
			buf = append(buf, '+')
			buf = strconv.AppendInt(buf, int64(r.Reexec), 10)
			buf = append(buf, '/')
			buf = strconv.AppendInt(buf, int64(r.Checkpoints), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, '|')
	}
	ev.buf = buf
	return sha256.Sum256(buf)
}

// evalMoves evaluates every move against the base assignment and
// returns the results indexed by move position. The base assignment is
// only read; each evaluation applies its move to a private clone, which
// the resulting schedule then owns. The context is checked before
// every scheduling pass, so a sweep over many moves stops promptly when
// it is canceled or its deadline expires (remaining entries report
// OK == false).
//
// With a context that never fires mid-sweep the result is independent
// of the worker count: callers pick winners by (cost, move index), and
// memoized entries are resolved before the fan-out so cache state never
// influences scheduling order. A context firing mid-sweep cuts the
// evaluated subset at a speed-dependent point, so only uninterrupted
// runs are bit-reproducible across worker counts (see Options.Workers).
func (ev *evaluator) evalMoves(ctx context.Context, base policy.Assignment, moves []Move) []MoveEval {
	out := make([]MoveEval, len(moves))
	if len(moves) == 0 {
		return out
	}

	// Resolve memoized results first; only cache misses hit the pool.
	keys := make([]fingerprint, len(moves))
	evaluated := make([]bool, len(moves))
	pending := make([]int, 0, len(moves))
	for i := range moves {
		keys[i] = ev.fingerprint(base, moves[i].proc, moves[i].pol)
		if r, hit := ev.cache[keys[i]]; hit {
			out[i] = MoveEval{Cost: r.c, OK: r.ok}
			ev.hits++
		} else {
			pending = append(pending, i)
			ev.misses++
		}
	}
	evalMetrics.cacheHits.Add(int64(len(moves) - len(pending)))
	evalMetrics.cacheMisses.Add(int64(len(pending)))
	if len(pending) == 0 {
		// The explicit nil guard (rather than relying on record's own)
		// keeps the disabled path free of event construction — part of
		// the recorder's zero-cost-when-off contract.
		if rec := ev.st.rec; rec != nil {
			rec.record(SearchEvent{Kind: EventSweep,
				Moves: len(moves), CacheHits: len(moves)})
		}
		return out
	}

	sw := &sweep{base: base, moves: moves, pending: pending, out: out, evaluated: evaluated}
	if workers := min(ev.workers, len(pending)); workers <= 1 {
		es := ev.getScratch()
		ev.primeScratch(es, base)
		for _, i := range pending {
			if stopped(ctx) {
				break
			}
			ev.evalOne(es, sw, i)
		}
		ev.scratch.Put(es)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				ev.worker(ctx, sw)
			}()
		}
		wg.Wait()
	}

	// Memoize everything that actually ran, including scheduler
	// rejections (they are deterministic per assignment). Moves skipped
	// by a fired context are not cached: they were never costed.
	ran := 0
	for _, i := range pending {
		if !evaluated[i] {
			continue
		}
		ran++
		if len(ev.cache) < maxCacheEntries {
			ev.cache[keys[i]] = cachedCost{c: out[i].Cost, ok: out[i].OK}
		}
	}
	evalMetrics.passes.Add(int64(ran))
	if rec := ev.st.rec; rec != nil {
		rec.record(SearchEvent{Kind: EventSweep, Moves: len(moves),
			Evaluated: ran, CacheHits: len(moves) - len(pending)})
	}
	return out
}

// sweep is the shared state of one evalMoves fan-out: the immutable
// inputs (base, moves, pending) and the result slots each index owns
// exclusively. next is the work-stealing cursor of the worker pool.
type sweep struct {
	base      policy.Assignment
	moves     []Move
	pending   []int
	out       []MoveEval
	evaluated []bool
	next      atomic.Int64
}

// primeScratch rebuilds the worker's candidate assignment as a shallow
// copy of base: policies are never mutated by scheduling, so sharing
// the Replicas backing is safe, and the map keeps its capacity across
// checkouts.
//
//ftdse:hotpath
func (ev *evaluator) primeScratch(es *evalScratch, base policy.Assignment) {
	clear(es.asgn)
	for id, p := range base {
		es.asgn[id] = p
	}
}

// evalOne costs one candidate into the worker's scratch: it substitutes
// the move's policy, schedules into the arena, and restores the base
// entry — O(1) map work per candidate, no allocations, no schedule
// retained. Moves always target processes present in base (the
// neighborhood is generated from its entries), so the restore never
// leaves a stale key.
//
//ftdse:hotpath
func (ev *evaluator) evalOne(es *evalScratch, sw *sweep, i int) {
	m := &sw.moves[i]
	es.asgn[m.proc] = m.pol
	c, ok := ev.st.evaluateInto(es.sc, es.asgn)
	es.asgn[m.proc] = sw.base[m.proc]
	sw.evaluated[i] = true
	if ok {
		sw.out[i] = MoveEval{Cost: c, OK: true}
	}
}

// worker is the body of one pool goroutine: it checks a scratch arena
// out once and drains the sweep's cursor until the work or the context
// runs out.
//
//ftdse:hotpath
func (ev *evaluator) worker(ctx context.Context, sw *sweep) {
	es := ev.getScratch()
	defer ev.scratch.Put(es)
	ev.primeScratch(es, sw.base)
	for {
		n := int(sw.next.Add(1)) - 1
		if n >= len(sw.pending) || stopped(ctx) {
			return
		}
		ev.evalOne(es, sw, sw.pending[n])
	}
}

// rebuild schedules the assignment with the move applied; used to
// materialize the schedule of a winner whose cost was memoized. The
// scheduler is deterministic, so the result matches the original
// evaluation of the same assignment.
func (ev *evaluator) rebuild(base policy.Assignment, m Move) (*sched.Schedule, error) {
	s, _, err := ev.st.evaluate(m.ApplyTo(base))
	return s, err
}
