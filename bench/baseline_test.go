package bench

import (
	"context"
	"os"
	"testing"
)

// baselineReport is the checked-in short-corpus report (seed 1) whose
// deterministic columns every revision must reproduce.
const baselineReport = "../BENCH_70f25f4.json"

// TestCorpusCountsMatchBaseline is the hard gate on the short corpus:
// every case's search outcome (iterations, final cost, schedulability)
// and evaluator work (scheduling passes, memo hits and misses) must
// equal the checked-in report exactly. Corpus solvers run untimed with
// one worker, so these columns are deterministic; a scheduler change
// that is meant to be bit-identical but is not shows up here. Wall time
// and allocations are measurements, not gated.
func TestCorpusCountsMatchBaseline(t *testing.T) {
	f, err := os.Open(baselineReport)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if want.Seed != 1 || !want.Short {
		t.Fatalf("baseline is seed %d short=%v, want seed 1 short", want.Seed, want.Short)
	}
	got, err := RunCorpus(context.Background(), Corpus(want.Seed, want.Short), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cases) != len(want.Cases) {
		t.Fatalf("corpus has %d cases, baseline %d", len(got.Cases), len(want.Cases))
	}
	for i, w := range want.Cases {
		g := got.Cases[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %s, baseline %s", i, g.Name, w.Name)
		}
		type column struct {
			name      string
			got, want any
		}
		for _, c := range []column{
			{"iterations", g.Iterations, w.Iterations},
			{"makespan_us", g.MakespanUS, w.MakespanUS},
			{"tardiness_us", g.TardinessUS, w.TardinessUS},
			{"schedulable", g.Schedulable, w.Schedulable},
			{"scheduling_passes", g.SchedulingPasses, w.SchedulingPasses},
			{"eval_cache_hits", g.EvalCacheHits, w.EvalCacheHits},
			{"eval_cache_misses", g.EvalCacheMisses, w.EvalCacheMisses},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s = %v, baseline %v", w.Name, c.name, c.got, c.want)
			}
		}
	}
}
