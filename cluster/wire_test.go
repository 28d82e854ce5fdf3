package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/ftdse/service"
)

// TestStatusBodiesMatchEncodingJSON checks every body that carries a
// job status, on a node and through the coordinator: each must be
// exactly what json.NewEncoder writes for the value it decodes to, and
// the SSE "done" data line exactly what json.Marshal writes. The cases
// that carry a result document (a miss answered with wait=1, a cache
// hit, a cancel with a best-so-far design, a finished job's status, a
// batch and the done event) check that the document is carried as
// encoding/json would carry it.
func TestStatusBodiesMatchEncodingJSON(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{PoolWorkers: 1})
	_, coord := startCoordinator(t, fastCfg(nodes))
	t.Run("node", func(t *testing.T) { checkStatusBodies(t, nodes[0].srv.URL, 100, true) })
	t.Run("coordinator", func(t *testing.T) { checkStatusBodies(t, coord.URL, 200, false) })
}

// checkStatusBodies drives one ftdsed-speaking server through every
// answer that carries a status. Problems are generated from seed, so
// each server sees problems of its own.
func checkStatusBodies(t *testing.T, url string, seed int64, node bool) {
	fast := submitBody(t, genProblem(6, seed), service.SolveOptions{MaxIterations: 3, Workers: 1})
	miss := exactStatus(t, "wait=1 miss", exchange(t, http.MethodPost, url+"/solve?wait=1", fast, http.StatusOK))
	if miss.State != service.StateDone || miss.Cached || len(miss.Result) == 0 {
		t.Fatalf("wait=1 miss = %+v, want done with a result", miss)
	}
	// A finished job has left the coalescing index before its wait is
	// released, so the first resubmission is a new job answered from
	// the cache, on a node and through a coordinator alike.
	hit := exactStatus(t, "wait=1 hit", exchange(t, http.MethodPost, url+"/solve?wait=1", fast, http.StatusOK))
	if hit.ID == miss.ID || !hit.Cached || !bytes.Equal(hit.Result, miss.Result) {
		t.Fatalf("wait=1 hit = %+v, want the cached result", hit)
	}
	if node {
		// A node answers a hit in place. (A coordinator queues a job for
		// its node to answer, and may or may not see the answer before
		// it replies.)
		st := exactStatus(t, "hit", exchange(t, http.MethodPost, url+"/solve", fast, http.StatusOK))
		if !st.Cached || !bytes.Equal(st.Result, miss.Result) {
			t.Fatalf("hit = %+v, want the cached result", st)
		}
	}

	// The node's single worker runs slow; the second slow job waits in
	// its queue. (A coordinator reports that job queued until its
	// dispatch returns, running after.)
	slow := slowBody(t, seed+1)
	running := exactStatus(t, "accepted", exchange(t, http.MethodPost, url+"/solve", slow, http.StatusAccepted))
	coalesced := exactStatus(t, "coalesced", exchange(t, http.MethodPost, url+"/solve", slow, http.StatusAccepted))
	if coalesced.ID != running.ID {
		t.Fatalf("identical submissions got jobs %s and %s", running.ID, coalesced.ID)
	}
	queued := exactStatus(t, "queued", exchange(t, http.MethodPost, url+"/solve", slowBody(t, seed+2), http.StatusAccepted))
	if queued.State != service.StateQueued && (node || queued.State != service.StateRunning) {
		t.Fatalf("second slow job = %+v, want queued", queued)
	}
	exactStatus(t, "DELETE queued", exchange(t, http.MethodDelete, url+"/jobs/"+queued.ID, nil, http.StatusOK))
	waitState(t, url, running.ID, 15*time.Second, func(st service.JobStatus) bool { return st.Improvements > 0 })
	exactStatus(t, "GET running", exchange(t, http.MethodGet, url+"/jobs/"+running.ID, nil, http.StatusOK))
	canceled := exactStatus(t, "DELETE running", exchange(t, http.MethodDelete, url+"/jobs/"+running.ID, nil, http.StatusOK))
	if canceled.State != service.StateCanceled || len(canceled.Result) == 0 {
		t.Fatalf("canceled running job = %+v, want its best-so-far result", canceled)
	}

	done := exactStatus(t, "GET done", exchange(t, http.MethodGet, url+"/jobs/"+miss.ID, nil, http.StatusOK))
	if !bytes.Equal(done.Result, miss.Result) {
		t.Fatalf("GET of a finished job = %+v, want its result", done)
	}
	batch, err := json.Marshal(service.BatchRequest{Jobs: []service.SubmitRequest{
		decodeRequest(t, fast),
		decodeRequest(t, submitBody(t, genProblem(5, seed+3), service.SolveOptions{MaxIterations: 3, Workers: 1})),
	}})
	if err != nil {
		t.Fatal(err)
	}
	exact[service.BatchResponse](t, "batch", exchange(t, http.MethodPost, url+"/solve/batch", batch, http.StatusAccepted))

	events := string(exchange(t, http.MethodGet, url+"/jobs/"+miss.ID+"/events", nil, http.StatusOK))
	_, after, ok := strings.Cut(events, "event: done\ndata: ")
	line, _, ok2 := strings.Cut(after, "\n")
	if !ok || !ok2 {
		t.Fatalf("event stream without a done event:\n%s", events)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(line), &st); err != nil {
		t.Fatalf("done event: %v", err)
	}
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if line != string(want) || !bytes.Equal(st.Result, miss.Result) {
		t.Errorf("done event data\n%s\nwant\n%s", line, want)
	}
}

// exchange runs one request and returns the body of the answer, which
// must have the given code.
func exchange(t *testing.T, method, url string, body []byte, code int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the answer: %v", method, url, err)
	}
	if resp.StatusCode != code {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, code, got)
	}
	return got
}

func exactStatus(t *testing.T, what string, body []byte) service.JobStatus {
	t.Helper()
	return exact[service.JobStatus](t, what, body)
}

// exact decodes body into a T and fails unless the body is exactly what
// json.NewEncoder writes for that value.
func exact[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: decoding %s: %v", what, body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("%s: encoding: %v", what, err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s: body\n%s\nis not what json.NewEncoder writes for it\n%s", what, body, want.Bytes())
	}
	return v
}

func decodeRequest(t *testing.T, body []byte) service.SubmitRequest {
	t.Helper()
	var req service.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req
}
