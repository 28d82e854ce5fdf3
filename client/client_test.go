package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// newService spins up a service behind an httptest server and returns a
// client bound to it; both are torn down with the test.
func newService(t *testing.T, cfg service.Config) *client.Client {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return client.New(srv.URL, srv.Client())
}

func genProblem(procs int, seed int64) ftdse.Problem {
	return ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: procs, Nodes: 2, Seed: seed},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
}

// waitState polls Job until ok matches.
func waitState(t *testing.T, c *client.Client, id string, timeout time.Duration, ok func(service.JobStatus) bool) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientEndToEnd walks the typed client through the whole service
// path: health, submit, stream, result decoding, status fetch, and the
// cache-hit resubmission.
func TestClientEndToEnd(t *testing.T) {
	c := newService(t, service.Config{PoolWorkers: 2, QueueSize: 8})
	ctx := context.Background()
	if !c.Healthy(ctx) {
		t.Fatal("service not healthy")
	}

	prob := genProblem(10, 1)
	opts := service.SolveOptions{MaxIterations: 20, Workers: 1}
	st, err := c.Submit(ctx, prob, opts)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var events int
	final, err := c.Stream(ctx, st.ID, func(service.ProgressEvent) { events++ })
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if events == 0 || final.Improvements != events {
		t.Errorf("stream delivered %d events, status counts %d", events, final.Improvements)
	}
	res, err := client.Result(final)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Stopped != "completed" {
		t.Errorf("Stopped = %q, want completed", res.Stopped)
	}

	got, err := c.Job(ctx, st.ID)
	if err != nil || got.ID != st.ID || got.State != service.StateDone {
		t.Errorf("Job = %+v, %v", got, err)
	}

	again, err := c.SubmitWait(ctx, prob, opts)
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if !again.Cached {
		t.Error("resubmission missed the cache")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m["ftdse_solves_total"] != 1 {
		t.Errorf("ftdse_solves_total = %v, want 1", m["ftdse_solves_total"])
	}

	if _, err := c.Job(ctx, "no-such-job"); err == nil {
		t.Error("Job on an unknown id succeeded")
	} else {
		var se *client.StatusError
		if !errors.As(err, &se) || se.Code != 404 {
			t.Errorf("unknown job error = %v, want *StatusError 404", err)
		}
	}
}

// TestClientQueueFullAndCancel pins the typed backpressure error and
// the cancel path.
func TestClientQueueFullAndCancel(t *testing.T) {
	c := newService(t, service.Config{PoolWorkers: 1, QueueSize: 1})
	ctx := context.Background()
	slow := service.SolveOptions{MaxIterations: 1_000_000, Workers: 1}

	a, err := c.Submit(ctx, genProblem(24, 2), slow)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, c, a.ID, 30*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning && st.Improvements >= 1
	})
	b, err := c.Submit(ctx, genProblem(24, 3), slow)
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}

	_, err = c.Submit(ctx, genProblem(24, 4), slow)
	var qf *client.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("third Submit error = %v, want *QueueFullError", err)
	}
	if qf.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", qf.RetryAfter)
	}

	// SubmitBatch is all-or-nothing against the same full queue.
	req, err := client.NewRequest(genProblem(24, 5), slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(ctx, []service.SubmitRequest{req}); !errors.As(err, &qf) {
		t.Errorf("SubmitBatch on a full queue = %v, want *QueueFullError", err)
	}

	// Cancel blocks until the job is terminal, so its own return value
	// already carries the final state and the best-so-far result.
	final, err := c.Cancel(ctx, a.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if final.State != service.StateCanceled || len(final.Result) == 0 {
		t.Errorf("canceled job: state %q, %d result bytes; want canceled with best-so-far",
			final.State, len(final.Result))
	}
	if _, err := c.Cancel(ctx, b.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
}

// TestZeroProblemIsAnError: every entry point that encodes a problem
// document reports a zero Problem as an error, and the client sends
// nothing.
func TestZeroProblemIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("a zero problem reached the server: %s %s", r.Method, r.URL)
		http.Error(w, "unexpected", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := client.New(srv.URL, srv.Client())
	ctx := context.Background()
	var zero ftdse.Problem
	var opts service.SolveOptions
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"ftdse.WriteProblem", func() error { return ftdse.WriteProblem(io.Discard, zero) }},
		{"service.Fingerprint", func() error { _, err := service.Fingerprint(zero, opts); return err }},
		{"client.NewRequest", func() error { _, err := client.NewRequest(zero, opts); return err }},
		{"Client.Submit", func() error { _, err := c.Submit(ctx, zero, opts); return err }},
		{"Client.SubmitWait", func() error { _, err := c.SubmitWait(ctx, zero, opts); return err }},
	} {
		if err := call.run(); err == nil {
			t.Errorf("%s accepted a zero Problem", call.name)
		}
	}
}
