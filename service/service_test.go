package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// newService spins up a service behind an httptest server and tears
// both down at the end of the test.
func newService(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
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
	return svc, srv
}

// genProblem builds a deterministic test problem.
func genProblem(procs int, seed int64) ftdse.Problem {
	return ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: procs, Nodes: 2, Seed: seed},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
}

// submitBody builds a POST /solve body.
func submitBody(t *testing.T, p ftdse.Problem, opts service.SolveOptions) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	body, err := json.Marshal(service.SubmitRequest{Problem: doc.Bytes(), Options: opts})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return body
}

// postSolve submits and decodes the answer, failing on unexpected
// codes; passing "wait" as the trailing flag uses the blocking
// ?wait=1 form.
func postSolve(t *testing.T, url string, body []byte, wantCode int, wait ...string) service.JobStatus {
	t.Helper()
	path := "/solve"
	if len(wait) > 0 {
		path = "/solve?wait=1"
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, wantCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// getJob fetches a job's status.
func getJob(t *testing.T, url, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitState polls until the job reaches a state matching ok.
func waitState(t *testing.T, url, id string, timeout time.Duration, ok func(service.JobStatus) bool) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getJob(t, url, id)
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%d improvements)", id, st.State, st.Improvements)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metric reads one sample from the Prometheus text exposition at
// GET /metrics. Labeled samples key as name{label="value"}.
func metric(t *testing.T, url, name string) float64 {
	t.Helper()
	m := scrapeMetrics(t, url)
	f, ok := m[name]
	if !ok {
		t.Fatalf("metric %q absent from /metrics", name)
	}
	return f
}

// scrapeMetrics fetches and parses the full exposition, validating the
// text format on every scrape.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("GET /metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return m
}

// slowOpts keeps a solve running until canceled: a generous iteration
// budget on a problem large enough that the budget never finishes
// within the test.
var slowOpts = service.SolveOptions{MaxIterations: 1_000_000, Workers: 1}

// TestBackpressureQueueFull pins the 429 + Retry-After contract: with a
// single worker occupied and the one queue slot taken, the next
// submission is rejected and carries a retry hint.
func TestBackpressureQueueFull(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 1})
	slow := submitBody(t, genProblem(24, 1), slowOpts)

	a := postSolve(t, srv.URL, slow, http.StatusAccepted)
	waitState(t, srv.URL, a.ID, 30*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})
	b := postSolve(t, srv.URL, submitBody(t, genProblem(24, 2), slowOpts), http.StatusAccepted)

	resp, err := http.Post(srv.URL+"/solve", "application/json",
		bytes.NewReader(submitBody(t, genProblem(24, 3), slowOpts)))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.RetryAfterS < 1 {
		t.Errorf("429 body = %+v, %v; want retry_after_s >= 1", er, err)
	}
	if got := metric(t, srv.URL, "ftdse_jobs_rejected_total"); got < 1 {
		t.Errorf("jobs_rejected = %v, want >= 1", got)
	}

	// Unblock the teardown drain quickly.
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatalf("DELETE: %v", err)
		}
	}
}

// TestCancelStopsPromptly pins the cancellation latency contract
// inherited from the solver: a canceled running job reaches a terminal
// state within 250ms and keeps its best-so-far design.
func TestCancelStopsPromptly(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 4})
	st := postSolve(t, srv.URL, submitBody(t, genProblem(24, 4), slowOpts), http.StatusAccepted)
	// Wait until the search is genuinely under way (initial incumbent
	// found), so the cancel interrupts a live tabu search.
	waitState(t, srv.URL, st.ID, 30*time.Second, func(s service.JobStatus) bool {
		return s.State == service.StateRunning && s.Improvements >= 1
	})

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	final := waitState(t, srv.URL, st.ID, time.Second, func(s service.JobStatus) bool {
		return service.TerminalState(s.State)
	})
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 250ms", elapsed)
	}
	if final.State != service.StateCanceled {
		t.Errorf("state = %q, want canceled", final.State)
	}
	if len(final.Result) == 0 {
		t.Error("canceled running job lost its best-so-far result")
	}
}

// parseSSE reads one job's event stream to completion.
func parseSSE(t *testing.T, url, id string) ([]service.ProgressEvent, service.JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []service.ProgressEvent
	var final service.JobStatus
	var event, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			switch event {
			case "improvement":
				var ev service.ProgressEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad improvement event %q: %v", data, err)
				}
				events = append(events, ev)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				return events, final
			}
			event, data = "", ""
		}
	}
	t.Fatalf("stream ended without done event (scan err %v)", sc.Err())
	return nil, final
}

// TestSSEStreamsMonotonicImprovements verifies the anytime interface
// for every strategy: the event stream delivers every incumbent in
// order, each strictly better than the last in the (tardiness,
// makespan) order, and closes with the final status.
func TestSSEStreamsMonotonicImprovements(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 4})
	for _, strategy := range ftdse.StrategyNames() {
		t.Run(strategy, func(t *testing.T) {
			st := postSolve(t, srv.URL,
				submitBody(t, genProblem(16, 5), service.SolveOptions{Strategy: strategy, MaxIterations: 60, Workers: 1}),
				http.StatusAccepted)

			events, final := parseSSE(t, srv.URL, st.ID)
			if len(events) == 0 {
				t.Fatal("no improvement events")
			}
			for i := 1; i < len(events); i++ {
				prev, cur := events[i-1], events[i]
				better := cur.TardinessMs < prev.TardinessMs ||
					(cur.TardinessMs == prev.TardinessMs && cur.MakespanMs < prev.MakespanMs)
				if !better {
					t.Errorf("event %d (%+v) does not improve on event %d (%+v)", i, cur, i-1, prev)
				}
			}
			if final.State != service.StateDone {
				t.Fatalf("final state = %q (%s)", final.State, final.Error)
			}
			if final.Improvements != len(events) {
				t.Errorf("final status counts %d improvements, stream delivered %d", final.Improvements, len(events))
			}
			var res service.JobResult
			if err := json.Unmarshal(final.Result, &res); err != nil {
				t.Fatalf("final result: %v", err)
			}
			last := events[len(events)-1]
			if res.MakespanMs != last.MakespanMs {
				t.Errorf("final makespan %.3f != last incumbent %.3f", res.MakespanMs, last.MakespanMs)
			}

			// A late subscriber replays the identical history.
			replay, final2 := parseSSE(t, srv.URL, st.ID)
			if len(replay) != len(events) || final2.State != service.StateDone {
				t.Errorf("replay delivered %d events (state %s), want %d", len(replay), final2.State, len(events))
			}
		})
	}
}

// TestCacheHitServesIdenticalResultWithoutResolving pins the cache
// contract: an identical resubmission is answered from the cache — the
// solve-count metric does not move — with a byte-identical result.
func TestCacheHitServesIdenticalResultWithoutResolving(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 2, QueueSize: 8})
	prob := genProblem(10, 6)
	opts := service.SolveOptions{MaxIterations: 20, Workers: 2}

	first := postSolve(t, srv.URL, submitBody(t, prob, opts), http.StatusOK, "wait")
	if first.State != service.StateDone || first.Cached {
		t.Fatalf("first solve: state %q cached %v", first.State, first.Cached)
	}
	solves := metric(t, srv.URL, "ftdse_solves_total")
	if solves != 1 {
		t.Fatalf("solves_total = %v after one solve", solves)
	}

	second := postSolve(t, srv.URL, submitBody(t, prob, opts), http.StatusOK)
	if !second.Cached || second.State != service.StateDone {
		t.Fatalf("resubmission: state %q cached %v, want done from cache", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result is not byte-identical:\nfirst:  %.200s\nsecond: %.200s", first.Result, second.Result)
	}
	if got := metric(t, srv.URL, "ftdse_solves_total"); got != solves {
		t.Errorf("cache hit re-solved: solves_total %v -> %v", solves, got)
	}
	if hits := metric(t, srv.URL, "ftdse_cache_hits_total"); hits != 1 {
		t.Errorf("cache_hits = %v, want 1", hits)
	}

	// Equivalent spellings share the entry: strategy case and an
	// explicit worker count (irrelevant without a time limit) must not
	// produce a new fingerprint.
	respelled := opts
	respelled.Strategy = "MXR"
	respelled.Workers = 7
	third := postSolve(t, srv.URL, submitBody(t, prob, respelled), http.StatusOK)
	if !third.Cached {
		t.Error("normalized-equivalent options missed the cache")
	}
	if third.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprint changed across equivalent spellings:\n%s\n%s", first.Fingerprint, third.Fingerprint)
	}
}

// TestBatchSubmission covers POST /solve/batch: cache hits answered in
// place, the rest enqueued, and all-or-nothing backpressure.
func TestBatchSubmission(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 2})
	prob := genProblem(8, 7)
	opts := service.SolveOptions{MaxIterations: 8, Workers: 1}

	// Prime the cache.
	postSolve(t, srv.URL, submitBody(t, prob, opts), http.StatusOK, "wait")

	mk := func(p ftdse.Problem) service.SubmitRequest {
		var doc bytes.Buffer
		if err := ftdse.WriteProblem(&doc, p); err != nil {
			t.Fatal(err)
		}
		return service.SubmitRequest{Problem: doc.Bytes(), Options: opts}
	}
	batch := service.BatchRequest{Jobs: []service.SubmitRequest{
		mk(prob), mk(genProblem(8, 8)), mk(genProblem(8, 9)),
	}}
	raw, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/solve/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /solve/batch: %v", err)
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(br.Jobs) != 3 {
		t.Fatalf("batch = %d with %d jobs", resp.StatusCode, len(br.Jobs))
	}
	if !br.Jobs[0].Cached || br.Jobs[0].State != service.StateDone {
		t.Errorf("batch job 0 should be a cache hit, got %+v", br.Jobs[0])
	}
	for i, j := range br.Jobs[1:] {
		if j.Cached {
			t.Errorf("batch job %d unexpectedly cached", i+1)
		}
		waitState(t, srv.URL, j.ID, 30*time.Second, func(st service.JobStatus) bool {
			return st.State == service.StateDone
		})
	}

	// A batch larger than the queue is rejected whole.
	var big service.BatchRequest
	for i := 0; i < 4; i++ {
		big.Jobs = append(big.Jobs, mk(genProblem(8, int64(20+i))))
	}
	raw, _ = json.Marshal(big)
	resp, err = http.Post(srv.URL+"/solve/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST big batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("oversized batch = %d, want 429", resp.StatusCode)
	}
}

// TestDrainReturnsBestSoFar pins the graceful-drain contract: running
// jobs complete with their best-so-far design, queued jobs are
// canceled, and new submissions are refused with 503.
func TestDrainReturnsBestSoFar(t *testing.T) {
	svc := service.New(service.Config{PoolWorkers: 1, QueueSize: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	running := postSolve(t, srv.URL, submitBody(t, genProblem(24, 10), slowOpts), http.StatusAccepted)
	waitState(t, srv.URL, running.ID, 30*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning && st.Improvements >= 1
	})
	queued := postSolve(t, srv.URL, submitBody(t, genProblem(24, 11), slowOpts), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ran := getJob(t, srv.URL, running.ID)
	if ran.State != service.StateCanceled || len(ran.Result) == 0 {
		t.Errorf("running job after drain: state %q, result %d bytes; want canceled with best-so-far",
			ran.State, len(ran.Result))
	}
	q := getJob(t, srv.URL, queued.ID)
	if !service.TerminalState(q.State) {
		t.Errorf("queued job after drain: state %q, want terminal", q.State)
	}

	resp, err := http.Post(srv.URL+"/solve", "application/json",
		bytes.NewReader(submitBody(t, genProblem(8, 12), service.SolveOptions{MaxIterations: 5})))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission after drain = %d, want 503", resp.StatusCode)
	}
}

// TestSustains100ConcurrentSubmissions is the headline acceptance
// check, run under -race in CI: 100 concurrent submissions against one
// instance, every job reaching a terminal state, duplicate problems
// eventually served from cache.
func TestSustains100ConcurrentSubmissions(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 8, QueueSize: 128, CacheSize: 64})
	const clients = 100
	const distinct = 8
	probs := make([][]byte, distinct)
	for i := range probs {
		probs[i] = submitBody(t, genProblem(5, int64(100+i)),
			service.SolveOptions{MaxIterations: 3, Workers: 1})
	}

	var wg sync.WaitGroup
	states := make([]string, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/solve?wait=1", "application/json",
				bytes.NewReader(probs[i%distinct]))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			var st service.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs[i] = err
				return
			}
			states[i] = st.State
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if states[i] != service.StateDone {
			t.Errorf("client %d: state %q, want done", i, states[i])
		}
	}
	solves := metric(t, srv.URL, "ftdse_solves_total")
	if solves < distinct || solves > clients {
		t.Errorf("solves_total = %v, want within [%d, %d]", solves, distinct, clients)
	}
	// Once every result is cached, an identical resubmission must not
	// solve again.
	before := metric(t, srv.URL, "ftdse_solves_total")
	st := postSolve(t, srv.URL, probs[0], http.StatusOK)
	if !st.Cached {
		t.Error("post-storm resubmission missed the cache")
	}
	if after := metric(t, srv.URL, "ftdse_solves_total"); after != before {
		t.Errorf("resubmission re-solved: %v -> %v", before, after)
	}
	hits := metric(t, srv.URL, "ftdse_cache_hits_total")
	misses := metric(t, srv.URL, "ftdse_cache_misses_total")
	t.Logf("100 concurrent submissions: %v solves, cache hit rate %.2f",
		solves, hits/(hits+misses))
}

// TestCoalescesIdenticalInFlightSubmissions pins the singleflight
// contract: a submission identical to an in-flight one attaches to the
// existing job (same id, no extra queue slot), a canceled-while-queued
// job's dead channel slot is not counted as load, and DELETE cancels
// the shared job for every attached client.
func TestCoalescesIdenticalInFlightSubmissions(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 1})
	body := submitBody(t, genProblem(24, 30), slowOpts)

	a := postSolve(t, srv.URL, body, http.StatusAccepted)
	waitState(t, srv.URL, a.ID, 30*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})
	b := postSolve(t, srv.URL, body, http.StatusAccepted)
	if b.ID != a.ID {
		t.Fatalf("identical in-flight submission got a fresh job %s, want %s", b.ID, a.ID)
	}
	if got := metric(t, srv.URL, "ftdse_jobs_coalesced_total"); got != 1 {
		t.Errorf("jobs_coalesced = %v, want 1", got)
	}

	// A distinct problem takes the one queue slot; canceling it while
	// queued must hand the slot back even before a worker pops the dead
	// entry (the worker is still busy with the shared job).
	q := postSolve(t, srv.URL, submitBody(t, genProblem(24, 31), slowOpts), http.StatusAccepted)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+q.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE queued: %v", err)
	}
	postSolve(t, srv.URL, submitBody(t, genProblem(24, 32), slowOpts), http.StatusAccepted)

	// One DELETE cancels the shared job for both submissions.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE shared: %v", err)
	}
	var final service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatalf("decoding DELETE answer: %v", err)
	}
	resp.Body.Close()
	if final.State != service.StateCanceled || len(final.Result) == 0 {
		t.Errorf("DELETE answered state %q with %d result bytes; want canceled with best-so-far",
			final.State, len(final.Result))
	}
}

// TestSharedJobSurvivesOneWaiterDisconnect pins cancel-on-disconnect
// under coalescing: a ?wait=1 client abandoning a shared job must not
// cancel it while another submission still wants the result.
func TestSharedJobSurvivesOneWaiterDisconnect(t *testing.T) {
	_, srv := newService(t, service.Config{PoolWorkers: 1, QueueSize: 4})
	body := submitBody(t, genProblem(24, 33), slowOpts)

	a := postSolve(t, srv.URL, body, http.StatusAccepted)
	waitState(t, srv.URL, a.ID, 30*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})

	// A second, waiting submission coalesces onto the job, then its
	// client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/solve?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, srv.URL, "ftdse_jobs_coalesced_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the running job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-waiterDone

	// The original submission still holds interest: the job must keep
	// running rather than being canceled by the waiter's disconnect.
	time.Sleep(150 * time.Millisecond)
	if st := getJob(t, srv.URL, a.ID); st.State != service.StateRunning {
		t.Fatalf("shared job state %q after one waiter left, want running", st.State)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+a.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	final := waitState(t, srv.URL, a.ID, time.Second, func(st service.JobStatus) bool {
		return service.TerminalState(st.State)
	})
	if final.State != service.StateCanceled {
		t.Errorf("state = %q, want canceled", final.State)
	}
}

// TestFingerprintStability pins the fingerprint definition itself.
func TestFingerprintStability(t *testing.T) {
	p := genProblem(10, 13)
	base := service.SolveOptions{MaxIterations: 50}
	fp1, err := service.Fingerprint(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fp1, "sha256:") || len(fp1) != len("sha256:")+64 {
		t.Errorf("fingerprint shape: %q", fp1)
	}
	// Same problem after an encode/decode round trip: same fingerprint
	// (the canonical-encoding guarantee).
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	back, err := ftdse.ReadProblem(&doc)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := service.Fingerprint(back, base)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("round-tripped problem changed fingerprint:\n%s\n%s", fp1, fp2)
	}
	// Equivalent option spellings collapse; meaningful changes do not.
	eq := service.SolveOptions{Strategy: "MXR", MaxIterations: 50, Workers: 9}
	fp3, err := service.Fingerprint(p, eq)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 != fp1 {
		t.Error("equivalent options changed the fingerprint")
	}
	timed := service.SolveOptions{MaxIterations: 50, Workers: 9, TimeLimitMs: 100}
	fp4, err := service.Fingerprint(p, timed)
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp1 {
		t.Error("a time limit (and timed worker count) must change the fingerprint")
	}
	other := service.SolveOptions{MaxIterations: 51}
	fp5, err := service.Fingerprint(p, other)
	if err != nil {
		t.Fatal(err)
	}
	if fp5 == fp1 {
		t.Error("a different iteration budget must change the fingerprint")
	}
	if _, err := service.Fingerprint(p, service.SolveOptions{Strategy: "bogus"}); err == nil {
		t.Error("Fingerprint accepted an unknown strategy")
	}
}
