package core

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// evalState builds a searchState plus an initial assignment and its
// move neighborhood for evaluator tests.
func evalState(t *testing.T, workers int) (*searchState, policy.Assignment, []Move) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 10, 3, 2)
	opts := DefaultOptions(MXR)
	opts.Workers = workers
	st, err := newSearchState(p, opts)
	if err != nil {
		t.Fatalf("newSearchState: %v", err)
	}
	asgn, err := st.initialMPA()
	if err != nil {
		t.Fatalf("initialMPA: %v", err)
	}
	moves := st.generateMoves(asgn, st.origins)
	if len(moves) == 0 {
		t.Fatal("no moves generated")
	}
	return st, asgn, moves
}

func TestEvaluatorFingerprintCanonical(t *testing.T) {
	st, base, moves := evalState(t, 1)
	ev := st.eval
	baseKey := ev.designKey(base)

	// Swapping a move's term into the base key must give the key of the
	// design with the move actually applied.
	m := moves[0]
	want := ev.designKey(m.ApplyTo(base))
	if got := ev.moveKey(baseKey, base, &m); got != want {
		t.Errorf("incremental key %x != applied key %x", got, want)
	}
	// Different moves must not collide with the base key.
	for i := range moves {
		if key := ev.moveKey(baseKey, base, &moves[i]); key == baseKey {
			t.Errorf("move %v keys like the unchanged assignment", moves[i])
		}
	}
}

// canonicalDesign is the canonical serialization the memo was keyed by
// before the incremental key (through a SHA-256 of it): every origin in
// sorted order, each replica as node+reexec/checkpoints, "-" for an
// absent process.
func canonicalDesign(origins []model.ProcID, d policy.Assignment) string {
	var buf []byte
	for _, id := range origins {
		p, ok := d[id]
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
	return string(buf)
}

// TestEvaluatorKeyMatchesCanonicalSerialization cross-checks the
// incremental memo key against canonicalDesign over 100k random
// (design, move) pairs from generated problems, walked from the initial
// design with checkpointing on: the incremental key equals the key
// computed from scratch, and two keys are equal exactly when the two
// serializations are. The pairs cover remap, checkpoint and
// add/drop-replica moves, designs with an absent process, and moves
// that give an absent process a policy.
func TestEvaluatorKeyMatchesCanonicalSerialization(t *testing.T) {
	const pairs = 100_000
	rng := rand.New(rand.NewSource(21))
	serOf := make(map[memoKey][sha256.Size]byte)
	keyOf := make(map[[sha256.Size]byte]memoKey)
	seen := func(k memoKey, ser string) {
		h := sha256.Sum256([]byte(ser))
		if prev, ok := serOf[k]; ok && prev != h {
			t.Fatalf("key %x shared by two serializations, one of them %q", k, ser)
		}
		if prev, ok := keyOf[h]; ok && prev != k {
			t.Fatalf("serialization %q has keys %x and %x", ser, prev, k)
		}
		serOf[k], keyOf[h] = h, k
	}
	kinds := make(map[string]int)
	for n := 0; n < pairs; {
		p := randomProblem(rng, 6+rng.Intn(15), 2+rng.Intn(3), 1+rng.Intn(3))
		opts := DefaultOptions(MXR)
		opts.EnableCheckpointing = true
		st, err := newSearchState(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ev := st.eval
		d, err := st.initialMPA()
		if err != nil {
			t.Fatal(err)
		}
		reexec := func() policy.Policy {
			return policy.Reexecution(arch.NodeID(rng.Intn(p.Arch.NumNodes())), p.Faults.K)
		}
		for walk := 0; walk < 400 && n < pairs; walk++ {
			// Now and then take a process out of the design or put it
			// back; while it is out, moves may give it a policy again.
			if rng.Intn(8) == 0 {
				if len(d) == len(st.origins) {
					delete(d, st.origins[rng.Intn(len(st.origins))])
				} else {
					for _, id := range st.origins {
						if _, ok := d[id]; !ok {
							d[id] = reexec()
						}
					}
				}
			}
			moves := st.generateMoves(d, st.origins)
			for _, id := range st.origins {
				if _, ok := d[id]; !ok {
					moves = append(moves, Move{proc: id, pol: reexec()})
				}
			}
			if len(moves) == 0 {
				break
			}
			base := ev.designKey(d)
			seen(base, canonicalDesign(st.origins, d))
			var next policy.Assignment
			for j := 0; j < 8 && n < pairs; j++ {
				m := moves[rng.Intn(len(moves))]
				applied := m.ApplyTo(d)
				want := ev.designKey(applied)
				if got := ev.moveKey(base, d, &m); got != want {
					t.Fatalf("move %v on %q: incremental key %x, from scratch %x",
						m, canonicalDesign(st.origins, d), got, want)
				}
				seen(want, canonicalDesign(st.origins, applied))
				kinds[moveKind(d, m)]++
				if len(d) < len(st.origins) {
					kinds["absent process in design"]++
				}
				next = applied
				n++
			}
			d = next
		}
	}
	for _, kind := range []string{"remap", "checkpoint", "add replica", "drop replica",
		"policy for absent process", "absent process in design"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s pair was checked", kind)
		}
	}
	t.Logf("pairs by kind: %v; %d distinct designs", kinds, len(serOf))
}

// moveKind classifies a move against the design it applies to.
func moveKind(d policy.Assignment, m Move) string {
	old, ok := d[m.proc]
	switch {
	case !ok:
		return "policy for absent process"
	case len(m.pol.Replicas) > len(old.Replicas):
		return "add replica"
	case len(m.pol.Replicas) < len(old.Replicas):
		return "drop replica"
	}
	for i, r := range m.pol.Replicas {
		if r.Checkpoints != old.Replicas[i].Checkpoints {
			return "checkpoint"
		}
	}
	return "remap"
}

// TestProposalSteadyStateAllocs pins the cost of an SA step once its
// arena is warm: a proposal served by the memo and a reschedule into
// the arena allocate nothing, and both leave the design as they found
// it. A full step (draw, build, propose, then reject, or accept without
// a new incumbent) allocates nothing either, over steps that both
// accept and reject, and keeps the annealer's key that of its design.
func TestProposalSteadyStateAllocs(t *testing.T) {
	st, base, moves := evalState(t, 1)
	ev := st.eval
	es := ev.getScratch()
	defer ev.scratch.Put(es)
	ctx := context.Background()
	d := base.Clone()
	m := &moves[0]
	k := ev.moveKey(ev.designKey(d), d, m)
	if r, sch := ev.propose(ctx, es.sc, d, m, k); !r.OK || sch == nil {
		t.Fatalf("first proposal: ok=%v, scheduled=%v; want a scheduled, costed move", r.OK, sch != nil)
	}
	if r, sch := ev.propose(ctx, es.sc, d, m, k); !r.OK || sch != nil {
		t.Fatalf("second proposal: ok=%v, scheduled=%v; want a memo hit", r.OK, sch != nil)
	}
	if allocs := testing.AllocsPerRun(100, func() { ev.propose(ctx, es.sc, d, m, k) }); allocs != 0 {
		t.Errorf("memo-hit proposal allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { ev.buildMove(es.sc, d, m) }); allocs != 0 {
		t.Errorf("warm-arena reschedule allocates %.1f objects, want 0", allocs)
	}
	if !reflect.DeepEqual(d, base) {
		t.Error("proposals left the design changed")
	}

	s := newSearch(st, time.Time{})
	sch, cost, err := st.evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	// An incumbent no design beats, so no step finds a new one; and a
	// memo table sized beforehand, so its growth does not count.
	s.bestC, s.hasBest = Cost{}, true
	ev.cache = make(map[memoKey]MoveEval, 1<<12)
	a := newAnnealer(s, es.sc, base.Clone(), sch, cost, 1)
	accepted, rejected := 0, 0
	steps := func() {
		for i := 0; i < 300; i++ {
			key := a.key
			if !a.step(ctx) {
				t.Fatal("the annealer ran out of moves")
			}
			if a.key != key {
				accepted++
			} else {
				rejected++
			}
		}
	}
	steps() // warm the arena
	if allocs := testing.AllocsPerRun(1, steps); allocs != 0 {
		t.Errorf("300 SA steps allocate %.0f objects, want 0", allocs)
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("steps accepted %d and rejected %d moves; want both", accepted, rejected)
	}
	if got := ev.designKey(a.cur); got != a.key {
		t.Errorf("annealer key %x, its design's key %x", a.key, got)
	}
}

func TestEvaluatorMemoization(t *testing.T) {
	st, base, moves := evalState(t, 1)
	ev := st.eval

	first := ev.evalMoves(context.Background(), base, moves)
	misses := ev.misses
	if ev.hits != 0 {
		t.Fatalf("first sweep had %d cache hits, want 0", ev.hits)
	}
	second := ev.evalMoves(context.Background(), base, moves)
	if ev.misses != misses {
		t.Errorf("second sweep missed the cache %d times", ev.misses-misses)
	}
	if ev.hits != len(moves) {
		t.Errorf("second sweep hit the cache %d times, want %d", ev.hits, len(moves))
	}
	for i := range first {
		if first[i].OK != second[i].OK || first[i].Cost != second[i].Cost {
			t.Errorf("move %d: memoized cost differs", i)
		}
	}

	// A bus change invalidates the cache.
	if err := st.rebuildStatic(); err != nil {
		t.Fatalf("rebuildStatic: %v", err)
	}
	if len(ev.cache) != 0 {
		t.Errorf("cache holds %d entries after bus rebuild, want 0", len(ev.cache))
	}
}

func TestEvaluatorCanceledContext(t *testing.T) {
	st, base, moves := evalState(t, 1)
	ev := st.eval

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range ev.evalMoves(ctx, base, moves) {
		if r.OK {
			t.Errorf("move %d evaluated despite canceled context", i)
		}
	}
	if len(ev.cache) != 0 {
		t.Errorf("context-skipped moves were cached (%d entries)", len(ev.cache))
	}
}

// TestEvaluatorScratchMatchesFreshBuild pins the bit-identical contract
// of the allocation-free hot path: every cost coming out of a sweep
// (scratch arenas, shallow-copied assignments) equals the cost of a
// fresh, allocating scheduling pass over the applied move.
func TestEvaluatorScratchMatchesFreshBuild(t *testing.T) {
	st, base, moves := evalState(t, 4)
	results := st.eval.evalMoves(context.Background(), base, moves)
	for i, r := range results {
		sch, c, err := st.evaluate(moves[i].ApplyTo(base))
		if (err == nil) != r.OK {
			t.Fatalf("move %d: sweep OK=%v, fresh err=%v", i, r.OK, err)
		}
		if !r.OK {
			continue
		}
		if c != r.Cost {
			t.Errorf("move %d: sweep cost %v != fresh cost %v", i, r.Cost, c)
		}
		if got := costOf(sch); got != r.Cost {
			t.Errorf("move %d: fresh schedule cost %v != sweep cost %v", i, got, r.Cost)
		}
	}
}

// TestEvaluatorMetricsAdvance: the process-wide hot-path counters must
// observe scheduling passes, cache traffic and scratch reuse.
func TestEvaluatorMetricsAdvance(t *testing.T) {
	before := ReadEvaluatorMetrics()
	st, base, moves := evalState(t, 2)
	st.eval.evalMoves(context.Background(), base, moves) // all misses
	st.eval.evalMoves(context.Background(), base, moves) // all hits
	after := ReadEvaluatorMetrics()
	if got := after.SchedulingPasses - before.SchedulingPasses; got < int64(len(moves)) {
		t.Errorf("scheduling passes advanced by %d, want >= %d", got, len(moves))
	}
	if got := after.CacheHits - before.CacheHits; got < int64(len(moves)) {
		t.Errorf("cache hits advanced by %d, want >= %d", got, len(moves))
	}
	if got := after.CacheMisses - before.CacheMisses; got < int64(len(moves)) {
		t.Errorf("cache misses advanced by %d, want >= %d", got, len(moves))
	}
	if after.ScratchAllocs == 0 {
		t.Error("no scratch arena was ever allocated")
	}
}

func TestEvaluatorWorkerCountsAgree(t *testing.T) {
	st1, base1, moves := evalState(t, 1)
	st8, base8, moves8 := evalState(t, 8)
	if len(moves) != len(moves8) {
		t.Fatalf("move sets differ: %d vs %d", len(moves), len(moves8))
	}
	seq := st1.eval.evalMoves(context.Background(), base1, moves)
	par := st8.eval.evalMoves(context.Background(), base8, moves8)
	for i := range seq {
		if seq[i].OK != par[i].OK || seq[i].Cost != par[i].Cost {
			t.Errorf("move %d: sequential %+v vs parallel %+v", i, seq[i].Cost, par[i].Cost)
		}
	}
}

// TestAnnealerDrawSet: SA draws from the moves Search.Moves lists for
// the critical path, index by index in the same order, and from those
// of every origin when the path offers no move.
func TestAnnealerDrawSet(t *testing.T) {
	st, base, _ := evalState(t, 1)
	sch, cost, err := st.evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	a := newAnnealer(newSearch(st, time.Time{}), sched.NewScratch(), base.Clone(), sch, cost, 1)
	absent := model.ProcID(len(st.origins) + 1)
	for _, path := range [][]model.ProcID{a.cp, {absent}} {
		a.cp = path
		a.recount()
		want := st.generateMoves(a.cur, path)
		if len(want) == 0 {
			want = st.generateMoves(a.cur, st.origins)
		}
		if a.total != len(want) {
			t.Fatalf("path %v: SA draws from %d moves, Moves lists %d", path, a.total, len(want))
		}
		for j := range want {
			if got := a.move(j); !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("path %v: draw %d builds %v, Moves lists %v", path, j, got, want[j])
			}
		}
	}
}
