package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation inflates allocation counts.
var raceEnabled bool

// TestValidateRepeatAllocs gates the allocations of validating a
// repeated submission: the coordinator's ProblemMemo answers it without
// decoding or re-encoding the problem document, with the fingerprint
// Fingerprint gives.
func TestValidateRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	c, err := New(Config{Nodes: []Node{{Name: "n1", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())
	p := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 20, Nodes: 2, Seed: 9},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	req := service.SubmitRequest{Problem: doc.Bytes(), Options: service.SolveOptions{MaxIterations: 5}}
	want, err := service.Fingerprint(p, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if fp, err := c.validate(req); err != nil || fp != want {
			t.Fatalf("validate #%d = (%q, %v), want %q", i, fp, err, want)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.validate(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("a repeated validate allocates %.0f objects, want at most 20", allocs)
	}
}

// TestCancelDuringDispatchReachesNode pins that a cancel arriving while
// the job's dispatch is still in flight, so that it finds no node to
// forward to, still stops the solve on the node that accepts the job.
func TestCancelDuringDispatchReachesNode(t *testing.T) {
	svc := service.New(service.Config{})
	arrived, release := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	h := svc.Handler()
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/solve" {
			once.Do(func() { close(arrived) })
			<-release
		}
		h.ServeHTTP(w, r)
	}))
	c, err := New(Config{
		Nodes:          []Node{{Name: "n1", URL: node.URL}},
		HealthInterval: 50 * time.Millisecond,
		PollInterval:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		// Unblock everything a failed run leaves waiting: the held
		// dispatch and a DELETE whose job never concludes.
		unblock()
		front.CloseClientConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		c.Close(ctx)
		front.Close()
		svc.Close(ctx)
		node.Close()
	})
	if err := c.Start(front.URL); err != nil {
		t.Fatal(err)
	}

	p := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 14, Nodes: 2, Seed: 3},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.SubmitRequest{Problem: doc.Bytes(),
		Options: service.SolveOptions{MaxIterations: 1_000_000, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", resp.StatusCode, err)
	}
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the dispatch never reached the node")
	}

	canceled := make(chan service.JobStatus, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, front.URL+"/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			canceled <- service.JobStatus{Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		var fin service.JobStatus
		json.NewDecoder(resp.Body).Decode(&fin)
		canceled <- fin
	}()
	// Release the dispatch only once the coordinator has recorded the
	// cancel, which then had no node to forward to.
	c.mu.Lock()
	j := c.jobs[st.ID]
	c.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		recorded := j.cancelReq
		j.mu.Unlock()
		if recorded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cancel was never recorded")
		}
	}
	unblock()
	select {
	case fin := <-canceled:
		if fin.State != service.StateCanceled {
			t.Fatalf("canceled job ended %q (%s)", fin.State, fin.Error)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the cancel never reached the node: the solve is still running")
	}
}

// TestDeadNodeReportsNoQueueDepth: once the health loop declares a node
// dead, /cluster/shards lists it with no queue depth rather than the
// depth of its last good probe.
func TestDeadNodeReportsNoQueueDepth(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.ReadyStatus{Ready: true, QueueDepth: 3, Node: "n1"})
	}))
	defer node.Close()
	c, err := New(Config{Nodes: []Node{{Name: "n1", URL: node.URL}}, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())
	c.healthPass()
	if got := c.shardStats()[0]; !got.Alive || got.QueueDepth != 3 {
		t.Fatalf("healthy node: alive=%v queue_depth=%d, want true and 3", got.Alive, got.QueueDepth)
	}
	node.Close()
	for i := 0; i < c.cfg.FailAfter; i++ {
		c.healthPass()
	}
	if got := c.shardStats()[0]; got.Alive || got.QueueDepth != 0 {
		t.Errorf("dead node: alive=%v queue_depth=%d, want false and 0", got.Alive, got.QueueDepth)
	}
}

// TestConcludedJobDropsRequest: a terminal job keeps its result but not
// its request, so the up to maxJobs retained jobs hold no
// problem bytes.
func TestConcludedJobDropsRequest(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(service.ReadyStatus{Ready: true, Node: "n1"})
		case "/solve":
			// Answered in place, as a node's result cache does.
			json.NewEncoder(w).Encode(service.JobStatus{ID: "r1", State: service.StateDone,
				Result: json.RawMessage(`{}`), Cached: true})
		default:
			http.NotFound(w, r)
		}
	}))
	defer node.Close()
	c, err := New(Config{Nodes: []Node{{Name: "n1", URL: node.URL}}, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	defer c.Close(context.Background())
	if err := c.Start(front.URL); err != nil {
		t.Fatal(err)
	}
	p := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 10, Nodes: 2, Seed: 4},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	req, err := client.NewRequest(p, service.SolveOptions{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != service.StateDone {
		t.Fatalf("submit: state %q, %v; want %q", st.State, err, service.StateDone)
	}
	c.mu.Lock()
	j := c.jobs[st.ID]
	c.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.req.Problem) != 0 || j.req.WarmStart != nil {
		t.Errorf("concluded job holds %d problem bytes and warm start %v", len(j.req.Problem), j.req.WarmStart != nil)
	}
	if len(j.result) == 0 {
		t.Error("concluded job lost its result")
	}
}

// TestConcludeLeavesOpenIndexBeforeWaking pins the order conclude keeps:
// a job leaves the coalescing index before its waiters wake, so a
// submission admitted once a wait is released starts a new job instead
// of coalescing onto the finished one. The test holds c.mu while
// conclude runs, so a job that became terminal while the lock is held
// would still be in the index.
func TestConcludeLeavesOpenIndexBeforeWaking(t *testing.T) {
	c, err := New(Config{Nodes: []Node{{Name: "n1", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())
	j := &cjob{id: "c000001", fp: "fp", state: service.StateRunning, done: make(chan struct{})}
	c.mu.Lock()
	c.jobs[j.id], c.open[j.fp] = j, j
	concluded := make(chan struct{})
	go func() {
		defer close(concluded)
		c.conclude(j, service.StateDone, json.RawMessage(`{}`), "")
	}()
	select {
	case <-j.done:
		coalescable := c.open[j.fp] == j
		c.mu.Unlock()
		if coalescable {
			t.Fatal("the job's wait was released while the job was still open for coalescing")
		}
	case <-time.After(200 * time.Millisecond):
		// conclude waits for c.mu before it makes the job terminal.
		c.mu.Unlock()
	}
	<-concluded
	select {
	case <-j.done:
	default:
		t.Fatal("conclude returned without releasing the job's wait")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open[j.fp] != nil {
		t.Error("a concluded job is still open for coalescing")
	}
}
