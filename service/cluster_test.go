package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/service"
)

// getReady fetches /readyz, returning the status and the HTTP code.
func getReady(t *testing.T, url string) (service.ReadyStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var st service.ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding readyz: %v", err)
	}
	return st, resp.StatusCode
}

func TestReadyzTracksQueueAndDrain(t *testing.T) {
	svc, srv := newService(t, service.Config{QueueSize: 1, PoolWorkers: 1})
	if st, code := getReady(t, srv.URL); code != http.StatusOK || !st.Ready {
		t.Fatalf("fresh service not ready: %+v (code %d)", st, code)
	}

	// Occupy the worker and fill the single queue slot: readiness must
	// flip to 503 while liveness stays 200.
	running := postSolve(t, srv.URL, submitBody(t, genProblem(12, 1), slowOpts), http.StatusAccepted)
	waitState(t, srv.URL, running.ID, 10*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})
	postSolve(t, srv.URL, submitBody(t, genProblem(12, 2), slowOpts), http.StatusAccepted)
	st, code := getReady(t, srv.URL)
	if code != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("full queue still ready: %+v (code %d)", st, code)
	}
	if st.QueueDepth != 1 || st.QueueCapacity != 1 {
		t.Fatalf("queue backlog = %d/%d, want 1/1", st.QueueDepth, st.QueueCapacity)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz should stay 200 while merely busy: %v", err)
	} else {
		resp.Body.Close()
	}

	// Draining flips readiness regardless of queue room.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st, code := getReady(t, srv.URL); code != http.StatusServiceUnavailable || !st.Draining {
		t.Fatalf("draining service still ready: %+v (code %d)", st, code)
	}
}

// TestJobCheckpointRoute: a running job's checkpoint document parses,
// carries the job's fingerprint and resolves against its problem; an
// unknown job, a job with no incumbent yet and a terminal job have none.
func TestJobCheckpointRoute(t *testing.T) {
	_, srv := newService(t, service.Config{QueueSize: 4, PoolWorkers: 1})
	checkpoint := func(id string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/jobs/" + id + "/checkpoint")
		if err != nil {
			t.Fatalf("GET /jobs/%s/checkpoint: %v", id, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := checkpoint("nope"); code != http.StatusNotFound || !bytes.Contains(body, []byte("unknown job nope")) {
		t.Fatalf("unknown job answered %d %s, want 404", code, body)
	}

	// The single worker runs the first job; the second waits in the
	// queue with no incumbent.
	prob := genProblem(14, 3)
	running := postSolve(t, srv.URL, submitBody(t, prob, slowOpts), http.StatusAccepted)
	queued := postSolve(t, srv.URL, submitBody(t, genProblem(12, 4), slowOpts), http.StatusAccepted)
	waitState(t, srv.URL, running.ID, 15*time.Second, func(st service.JobStatus) bool {
		return st.Improvements > 0
	})
	code, body := checkpoint(running.ID)
	if code != http.StatusOK {
		t.Fatalf("running job answered %d %s, want 200", code, body)
	}
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("checkpoint does not parse: %v\n%s", err, body)
	}
	if ck.Fingerprint != running.Fingerprint {
		t.Fatalf("checkpoint fingerprint %q, want %q", ck.Fingerprint, running.Fingerprint)
	}
	if _, err := ftdse.CheckpointDesign(prob, ck); err != nil {
		t.Fatalf("checkpoint design does not resolve against the problem: %v", err)
	}
	if code, body := checkpoint(queued.ID); code != http.StatusNotFound ||
		!bytes.Contains(body, []byte("no checkpoint for job "+queued.ID)) {
		t.Fatalf("queued job answered %d %s, want 404", code, body)
	}

	// DELETE answers once the job is terminal.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
	}
	if code, body := checkpoint(running.ID); code != http.StatusNotFound {
		t.Fatalf("terminal job answered %d %s, want 404", code, body)
	}
}

func TestWarmStartSubmission(t *testing.T) {
	prob := genProblem(10, 4)

	// Build a checkpoint the way a coordinator would have stored one:
	// from a local solve's last incumbent.
	var last ftdse.Improvement
	res, err := ftdse.NewSolver(ftdse.WithProgress(func(imp ftdse.Improvement) {
		last = imp
	})).Solve(context.Background(), prob)
	if err != nil {
		t.Fatalf("local solve: %v", err)
	}
	ck, err := ftdse.NewCheckpoint(prob, "", last)
	if err != nil {
		t.Fatalf("NewCheckpoint: %v", err)
	}
	var ckDoc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&ckDoc, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	_, srv := newService(t, service.Config{QueueSize: 4, PoolWorkers: 1})
	var probDoc bytes.Buffer
	if err := ftdse.WriteProblem(&probDoc, prob); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	body, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: ckDoc.Bytes(),
	})
	st := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if st.State != service.StateDone {
		t.Fatalf("warm-started job ended %q (%s)", st.State, st.Error)
	}
	var jr service.JobResult
	if err := json.Unmarshal(st.Result, &jr); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	// The warm-start guarantee: never worse than the checkpointed
	// incumbent (here the converged design, so exactly equal).
	if jr.MakespanMs > res.Cost.Makespan.Milliseconds() || jr.TardinessMs > res.Cost.Tardiness.Milliseconds() {
		t.Fatalf("warm-started result (%v, %v) regressed past checkpoint (%v, %v)",
			jr.TardinessMs, jr.MakespanMs,
			res.Cost.Tardiness.Milliseconds(), res.Cost.Makespan.Milliseconds())
	}
	if n := metric(t, srv.URL, "ftdse_warm_starts_total"); n != 1 {
		t.Fatalf("warm_starts = %v, want 1", n)
	}

	// A malformed warm start is a client error...
	bad, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: json.RawMessage(`{"version":99}`),
	})
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed warm start = %d, want 400", resp.StatusCode)
	}

	// ...but a well-formed checkpoint that does not fit the problem is a
	// best-effort hint from a similar instance: the solve proceeds cold.
	other := genProblem(6, 99)
	var otherLast ftdse.Improvement
	if _, err := ftdse.NewSolver(ftdse.WithProgress(func(imp ftdse.Improvement) {
		otherLast = imp
	})).Solve(context.Background(), other); err != nil {
		t.Fatalf("other solve: %v", err)
	}
	otherCk, err := ftdse.NewCheckpoint(other, "", otherLast)
	if err != nil {
		t.Fatalf("other checkpoint: %v", err)
	}
	var otherDoc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&otherDoc, otherCk); err != nil {
		t.Fatalf("other WriteCheckpoint: %v", err)
	}
	mismatched, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: otherDoc.Bytes(),
	})
	if st := postSolve(t, srv.URL, mismatched, http.StatusOK, "wait"); st.State != service.StateDone && !st.Cached {
		t.Fatalf("mismatched warm start broke the solve: %+v", st)
	}
}
