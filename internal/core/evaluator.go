package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// memoKey is the memo table's key for a design: the XOR of one keyTerm
// per origin position. XOR is its own inverse, so the key of a design
// with one process's policy replaced is the design's key with that
// position's old term XORed out and its new term XORed in: O(replicas)
// per move, integer operations only. A term is a pseudo-random 128-bit
// value, so two distinct designs share a key with probability 2^-128;
// over the maxCacheEntries a table may hold, the chance of any
// collision is about 2^-89.
type memoKey struct{ lo, hi uint64 }

// maxCacheEntries bounds the memo table within one bus configuration;
// beyond it new results are still returned but no longer remembered.
// 2^20 entries (40 bytes of key and cost each, plus the map's own
// overhead) is far above any configured search budget.
const maxCacheEntries = 1 << 20

// keyLo and keyHi seed the two 64-bit halves of a memoKey, so each
// half chains mix64 from its own starting point.
const keyLo, keyHi = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f

// mix64 is the splitmix64 finalizer, as in cluster/ring.go: a
// bijection on 64 bits that spreads every input bit over the output.
//
//ftdse:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyTerm is origin position pos's contribution to a memoKey. Each half
// chains mix64 over the position, the replica count (0 when the process
// is absent, so an absent process and an empty policy differ) and every
// replica's node, re-executions and checkpoints in replica order.
//
//ftdse:hotpath
func keyTerm(pos int, p policy.Policy, present bool) memoKey {
	n := uint64(0)
	if present {
		n = uint64(len(p.Replicas)) + 1
	}
	lo, hi := mix64(keyLo^uint64(pos)), mix64(keyHi^uint64(pos))
	lo, hi = mix64(lo^n), mix64(hi^n)
	for _, r := range p.Replicas {
		lo, hi = mix64(lo^uint64(r.Node)), mix64(hi^uint64(r.Node))
		lo, hi = mix64(lo^uint64(r.Reexec)), mix64(hi^uint64(r.Reexec))
		lo, hi = mix64(lo^uint64(r.Checkpoints)), mix64(hi^uint64(r.Checkpoints))
	}
	return memoKey{lo, hi}
}

// xor adds or removes a term: the key algebra of designKey and moveKey.
//
//ftdse:hotpath
func (k memoKey) xor(o memoKey) memoKey { return memoKey{k.lo ^ o.lo, k.hi ^ o.hi} }

// evaluator runs the per-move scheduling passes shared by every engine.
// Moves are fanned out over a bounded worker pool and results are
// memoized by design key, so a search loop never re-schedules a design
// it has already costed.
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

	cache map[memoKey]MoveEval
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
	ev := &evaluator{st: st, workers: workers, cache: make(map[memoKey]MoveEval)}
	ev.scratch.New = func() any {
		evalMetrics.scratchAllocs.Add(1)
		return &evalScratch{asgn: policy.Assignment{}, sc: sched.NewScratch()}
	}
	return ev
}

// invalidate drops the memoized results. Called whenever the bus
// configuration changes: the key covers only the design, so cached
// costs are valid for a single scheduling context.
func (ev *evaluator) invalidate() {
	clear(ev.cache)
}

// designKey computes the memo key of a whole design from scratch,
// O(processes × replicas): once per sweep, or once per run for an
// engine that keeps its working design's key (SA). Entries of d that
// are not origins are not part of the key.
//
//ftdse:hotpath
func (ev *evaluator) designKey(d policy.Assignment) memoKey {
	var k memoKey
	for pos, id := range ev.st.origins {
		p, ok := d[id]
		k = k.xor(keyTerm(pos, p, ok))
	}
	return k
}

// moveKey derives the memo key of d with m applied from k, the key of
// d: the moved position's old term is swapped for the new one.
//
//ftdse:hotpath
func (ev *evaluator) moveKey(k memoKey, d policy.Assignment, m *Move) memoKey {
	pos, ok := slices.BinarySearch(ev.st.origins, m.proc)
	if !ok {
		return k
	}
	old, had := d[m.proc]
	return k.xor(keyTerm(pos, old, had)).xor(keyTerm(pos, m.pol, true))
}

// memoGet looks a design up in the memo table, counting the hit or
// miss.
func (ev *evaluator) memoGet(k memoKey) (MoveEval, bool) {
	r, hit := ev.cache[k]
	if hit {
		ev.hits++
	} else {
		ev.misses++
	}
	return r, hit
}

// memoPut remembers a costed design, scheduler rejections included
// (they are deterministic per design), while the table has room.
func (ev *evaluator) memoPut(k memoKey, r MoveEval) {
	if len(ev.cache) < maxCacheEntries {
		ev.cache[k] = r
	}
}

// account closes one sweep of moves candidates, hits of them served by
// the memo and ran of them scheduled: it advances the process-wide
// counters and records the flight recorder's sweep event.
func (ev *evaluator) account(moves, hits, ran int) {
	evalMetrics.cacheHits.Add(int64(hits))
	evalMetrics.cacheMisses.Add(int64(moves - hits))
	evalMetrics.passes.Add(int64(ran))
	// The explicit nil guard (rather than relying on record's own)
	// keeps the disabled path free of event construction — part of
	// the recorder's zero-cost-when-off contract.
	if rec := ev.st.rec; rec != nil {
		rec.record(SearchEvent{Kind: EventSweep, Moves: moves,
			Evaluated: ran, CacheHits: hits})
	}
}

// evalMoves evaluates every move against the base assignment and
// returns the results indexed by move position. The base assignment is
// only read: workers substitute each move into a shallow working copy
// and schedule it into their arena. The context is checked before
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
	baseKey := ev.designKey(base)
	keys := make([]memoKey, len(moves))
	pending := make([]int, 0, len(moves))
	for i := range moves {
		keys[i] = ev.moveKey(baseKey, base, &moves[i])
		if r, hit := ev.memoGet(keys[i]); hit {
			out[i] = r
		} else {
			pending = append(pending, i)
		}
	}

	if len(pending) == 0 {
		ev.account(len(moves), len(moves), 0)
		return out
	}

	evaluated := make([]bool, len(moves))
	sw := &sweep{base: base, moves: moves, pending: pending, out: out, evaluated: evaluated}
	if workers := min(ev.workers, len(pending)); workers <= 1 {
		ev.worker(ctx, sw) // on the calling goroutine
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

	// Memoize everything that actually ran. Moves skipped by a fired
	// context are not cached: they were never costed.
	ran := 0
	for _, i := range pending {
		if evaluated[i] {
			ran++
			ev.memoPut(keys[i], out[i])
		}
	}
	ev.account(len(moves), len(moves)-len(pending), ran)
	return out
}

// propose costs one candidate, d with m applied, whose memo key is k,
// exactly as a one-move evalMoves would: the same memo lookup and
// insert, counters and sweep event. A miss is scheduled into the
// caller's arena sc, working on d in place, and d is restored before
// propose returns. The schedule is returned only when this call built
// it (nil on a memo hit, a rejection or a fired context); it lives in
// sc until sc's next build.
func (ev *evaluator) propose(ctx context.Context, sc *sched.Scratch, d policy.Assignment, m *Move, k memoKey) (MoveEval, *sched.Schedule) {
	r, hit := ev.memoGet(k)
	var sch *sched.Schedule
	switch {
	case hit:
		ev.account(1, 1, 0)
	case stopped(ctx):
		ev.account(1, 0, 0)
	default:
		sch, r = ev.buildMove(sc, d, m)
		ev.memoPut(k, r)
		ev.account(1, 0, 1)
	}
	return r, sch
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

// buildMove schedules d with m applied into the arena sc and restores
// d's entry for m's process: O(1) map work, no allocation, nothing
// retained. The schedule is valid until sc's next build; it is nil,
// and the result not OK, when the scheduler rejects the design.
//
//ftdse:hotpath
func (ev *evaluator) buildMove(sc *sched.Scratch, d policy.Assignment, m *Move) (*sched.Schedule, MoveEval) {
	old, had := d[m.proc]
	d[m.proc] = m.pol
	sch, err := sched.BuildInto(sc, ev.st.schedInput(d))
	if had {
		d[m.proc] = old
	} else {
		delete(d, m.proc)
	}
	if err != nil {
		return nil, MoveEval{}
	}
	return sch, MoveEval{Cost: costOf(sch), OK: true}
}

// evalOne costs one candidate of a sweep into the worker's scratch. No
// schedule is retained.
//
//ftdse:hotpath
func (ev *evaluator) evalOne(es *evalScratch, sw *sweep, i int) {
	_, sw.out[i] = ev.buildMove(es.sc, es.asgn, &sw.moves[i])
	sw.evaluated[i] = true
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
