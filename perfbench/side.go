package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// evalCase is one returned design to rebuild with Problem.Evaluate.
type evalCase struct {
	problem ftdse.Problem
	design  ftdse.Design
}

// sideMinDuration is how long each side timing repeats its calls; every
// input is used at least once.
const sideMinDuration = 40 * time.Millisecond

// timeCalls calls call(i) for i cycling over n items, one span each,
// until every item ran and sideMinDuration passed. It returns the mean
// microseconds and heap allocations per call.
func timeCalls(rec *recorder, name string, n int, call func(i int) error) (us, allocs float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	calls := 0
	for ; calls < n || time.Since(start) < sideMinDuration; calls++ {
		id := rec.begin(name, 0, 0)
		err := call(calls % n)
		rec.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(time.Microsecond) / float64(calls),
		float64(m1.Mallocs-m0.Mallocs) / float64(calls), nil
}

// sideTimings times, after the timed phase and on the workload's own
// inputs, the calls of the layers an operation crosses outside the
// solve: rebuilding returned designs (scheduler), the problem codec,
// the client's request encoding and the service fingerprint.
func sideTimings(rep *report, rec *recorder, inputs []input, evals []evalCase, opts service.SolveOptions) error {
	m := rep.metrics
	var err error
	if m["sched.build_us"], m["sched.build_allocs"], err = timeCalls(rec, "ftdse.Problem.Evaluate", len(evals), func(i int) error {
		_, err := evals[i].problem.Evaluate(evals[i].design)
		return err
	}); err != nil {
		return err
	}
	for i := range inputs {
		if inputs[i].doc == nil {
			if err := inputs[i].encode(); err != nil {
				return err
			}
		}
	}
	if m["codec.read_problem_us"], _, err = timeCalls(rec, "ftdse.ReadProblem", len(inputs), func(i int) error {
		_, err := ftdse.ReadProblem(bytes.NewReader(inputs[i].doc))
		return err
	}); err != nil {
		return err
	}
	if m["codec.write_problem_us"], _, err = timeCalls(rec, "ftdse.WriteProblem", len(inputs), func(i int) error {
		return ftdse.WriteProblem(io.Discard, inputs[i].problem)
	}); err != nil {
		return err
	}
	// A submission encodes its request this way before sending it.
	if m["client.encode_us"], _, err = timeCalls(rec, "client.NewRequest", len(inputs), func(i int) error {
		req, err := client.NewRequest(inputs[i].problem, opts)
		if err == nil {
			_, err = json.Marshal(req)
		}
		return err
	}); err != nil {
		return err
	}
	m["service.fingerprint_us"], _, err = timeCalls(rec, "service.Fingerprint", len(inputs), func(i int) error {
		_, err := service.Fingerprint(inputs[i].problem, opts)
		return err
	})
	return err
}
