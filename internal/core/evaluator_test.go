package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/ftdse/internal/policy"
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

	// Substituting a move's policy must fingerprint identically to
	// actually applying the move.
	m := moves[0]
	applied := m.ApplyTo(base)
	want := ev.fingerprint(applied, m.proc, applied[m.proc])
	if got := ev.fingerprint(base, m.proc, m.pol); got != want {
		t.Errorf("substituted fingerprint %x != applied fingerprint %x", got, want)
	}
	// Different moves must not collide with the base fingerprint.
	baseKey := ev.fingerprint(base, m.proc, base[m.proc])
	for i := range moves {
		if key := ev.fingerprint(base, moves[i].proc, moves[i].pol); key == baseKey {
			t.Errorf("move %v fingerprints like the unchanged assignment", moves[i])
		}
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
