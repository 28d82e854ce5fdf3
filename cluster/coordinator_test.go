package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/cluster"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// testNode is one in-process solver node behind an httptest server.
type testNode struct {
	svc *service.Service
	srv *httptest.Server
}

// kill severs the node's HTTP surface abruptly — from the coordinator's
// point of view the node is dead (transport errors), even though the
// in-process solve goroutines wind down in the background.
func (n *testNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Close()
}

// startNodes brings up n solver nodes.
func startNodes(t *testing.T, n int, cfg service.Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		svc := service.New(cfg)
		srv := httptest.NewServer(svc.Handler())
		nodes[i] = &testNode{svc: svc, srv: srv}
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			svc.Close(ctx)
		})
	}
	return nodes
}

// fastCfg makes the coordinator's loops test-speed.
func fastCfg(nodes []*testNode) cluster.Config {
	cfg := cluster.Config{
		CheckpointInterval: 25 * time.Millisecond,
		HealthInterval:     50 * time.Millisecond,
		PollInterval:       20 * time.Millisecond,
		FailAfter:          2,
	}
	for i, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: n.srv.URL})
	}
	return cfg
}

// startCoordinator brings up a coordinator over the nodes.
func startCoordinator(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	if err := coord.Start(srv.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		coord.Close(ctx)
		srv.Close()
	})
	return coord, srv
}

func genProblem(procs int, seed int64) ftdse.Problem {
	return ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: procs, Nodes: 2, Seed: seed},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
}

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

func postSolve(t *testing.T, url string, body []byte, wantCode int, wait ...string) service.JobStatus {
	t.Helper()
	path := "/solve"
	if len(wait) > 0 {
		path = "/solve?wait=1"
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
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
		time.Sleep(10 * time.Millisecond)
	}
}

// metric reads one sample from the coordinator's Prometheus text
// exposition at GET /metrics, validating the format on every scrape.
func metric(t *testing.T, url, name string) float64 {
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
	f, ok := m[name]
	if !ok {
		t.Fatalf("metric %q absent from /metrics", name)
	}
	return f
}

func shards(t *testing.T, url string) []cluster.ShardStat {
	t.Helper()
	resp, err := http.Get(url + "/cluster/shards")
	if err != nil {
		t.Fatalf("GET /cluster/shards: %v", err)
	}
	defer resp.Body.Close()
	var sr cluster.ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding shards: %v", err)
	}
	return sr.Nodes
}

// slowBody keeps a solve running until canceled or killed: a huge
// iteration budget, one worker.
func slowBody(t *testing.T, seed int64) []byte {
	return submitBody(t, genProblem(14, seed),
		service.SolveOptions{MaxIterations: 1_000_000, Workers: 1})
}

func TestClusterSolveAndNodeCacheAffinity(t *testing.T) {
	nodes := startNodes(t, 2, service.Config{})
	_, srv := startCoordinator(t, fastCfg(nodes))

	body := submitBody(t, genProblem(6, 1), service.SolveOptions{})
	st := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if st.State != service.StateDone || len(st.Result) == 0 || st.Cached {
		t.Fatalf("first solve = %+v", st)
	}
	// An identical resubmission is a new coordinator job, but the owning
	// node answers it from its result cache without re-solving, and the
	// coordinator reports that.
	st2 := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("resubmission = %+v", st2)
	}
	if st2.ID == st.ID {
		t.Fatalf("terminal job reused for a fresh submission")
	}
	if !bytes.Equal(st.Result, st2.Result) {
		t.Fatalf("cache hit returned a different result document")
	}
	if got := metric(t, srv.URL, "ftcluster_node_cache_hits_total"); got < 1 {
		t.Fatalf("node_cache_hits = %v, want >= 1 (affinity should route to the same shard)", got)
	}
}

func TestClusterCoalescesDuplicateSubmissions(t *testing.T) {
	nodes := startNodes(t, 2, service.Config{})
	_, srv := startCoordinator(t, fastCfg(nodes))

	body := slowBody(t, 2)
	st1 := postSolve(t, srv.URL, body, http.StatusAccepted)
	st2 := postSolve(t, srv.URL, body, http.StatusAccepted)
	if st1.ID != st2.ID {
		t.Fatalf("duplicate submissions got distinct jobs %s / %s", st1.ID, st2.ID)
	}
	if got := metric(t, srv.URL, "ftcluster_jobs_coalesced_total"); got != 1 {
		t.Fatalf("jobs_coalesced = %v, want 1", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	waitState(t, srv.URL, st1.ID, 15*time.Second, func(st service.JobStatus) bool {
		return service.TerminalState(st.State)
	})
}

func TestClusterValidationAndAdmission(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{})
	cfg := fastCfg(nodes)
	cfg.MaxPending = 1
	_, srv := startCoordinator(t, cfg)

	// Garbage problems never reach the journal or a node.
	resp, err := http.Post(srv.URL+"/solve", "application/json",
		bytes.NewReader([]byte(`{"problem":{"nonsense":true}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed problem = %d, want 400", resp.StatusCode)
	}

	st := postSolve(t, srv.URL, slowBody(t, 3), http.StatusAccepted)
	// The admission cap is full: a second distinct problem bounces with a
	// retry hint, while a duplicate of the open job still coalesces.
	resp, err = http.Post(srv.URL+"/solve", "application/json",
		bytes.NewReader(slowBody(t, 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	dup := postSolve(t, srv.URL, slowBody(t, 3), http.StatusAccepted)
	if dup.ID != st.ID {
		t.Fatalf("duplicate rejected by the admission cap instead of coalescing")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// ckCost extracts the (tardiness, makespan) incumbent cost of a stored
// checkpoint document.
func ckCost(t *testing.T, doc json.RawMessage) (float64, float64) {
	t.Helper()
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("stored checkpoint does not parse: %v", err)
	}
	return ck.TardinessMs, ck.MakespanMs
}

// TestClusterFailoverResumesFromCheckpoint is the heart of the
// subsystem: kill the node that owns an in-flight solve and the job
// must finish on the survivor, warm-started from the last pulled
// checkpoint, with a final cost no worse than the checkpointed
// incumbent.
func TestClusterFailoverResumesFromCheckpoint(t *testing.T) {
	nodes := startNodes(t, 2, service.Config{})
	coord, srv := startCoordinator(t, fastCfg(nodes))

	// A bounded-but-slow solve: the time limit restarts on the surviving
	// node, so the job finishes a few seconds after failover at worst.
	body := submitBody(t, genProblem(14, 5),
		service.SolveOptions{MaxIterations: 1_000_000, Workers: 1, TimeLimitMs: 4000})
	st := postSolve(t, srv.URL, body, http.StatusAccepted)

	// Wait for the first checkpoint to land, then find the owning shard.
	deadline := time.Now().Add(15 * time.Second)
	for coord.LatestCheckpoint(st.Fingerprint) == nil {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint arrived")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ckT, ckM := ckCost(t, coord.LatestCheckpoint(st.Fingerprint))
	var owner string
	for _, sh := range shards(t, srv.URL) {
		if sh.OpenJobs > 0 {
			owner = sh.Node
		}
	}
	if owner == "" {
		t.Fatal("no shard owns the open job")
	}
	for i, n := range nodes {
		if fmt.Sprintf("n%d", i+1) == owner {
			n.kill()
		}
	}

	final := waitState(t, srv.URL, st.ID, 30*time.Second, func(st service.JobStatus) bool {
		return service.TerminalState(st.State)
	})
	if final.State != service.StateDone {
		t.Fatalf("job after failover = %+v", final)
	}
	var res service.JobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	// The warm start makes regression impossible: the resumed search
	// adopts the checkpointed incumbent before improving on it.
	if res.TardinessMs > ckT || (res.TardinessMs == ckT && res.MakespanMs > ckM) {
		t.Fatalf("final cost (%v, %v) regressed past checkpoint (%v, %v)",
			res.TardinessMs, res.MakespanMs, ckT, ckM)
	}
	if got := metric(t, srv.URL, "ftcluster_redispatches_total"); got < 1 {
		t.Fatalf("redispatches = %v, want >= 1", got)
	}
	if got := metric(t, srv.URL, "ftcluster_warm_dispatches_total"); got < 1 {
		t.Fatalf("warm_dispatches = %v, want >= 1", got)
	}
	// A duplicate arriving after the failover still coalesces onto the
	// finished job's fingerprint via the node result cache (new job, same
	// bytes back).
	dup := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if dup.State != service.StateDone {
		t.Fatalf("post-failover duplicate = %+v", dup)
	}
}

// TestClusterJournalSurvivesCoordinatorRestart pins durability: jobs
// acknowledged by one coordinator incarnation are adopted and finished
// by the next.
func TestClusterJournalSurvivesCoordinatorRestart(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{})
	cfg := fastCfg(nodes)
	cfg.Journal = filepath.Join(t.TempDir(), "jobs.wal")

	coordA, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(coordA.Handler())
	if err := coordA.Start(srvA.URL); err != nil {
		t.Fatal(err)
	}

	// One finished job and one still in flight when the coordinator dies.
	doneSt := postSolve(t, srvA.URL, submitBody(t, genProblem(6, 11), service.SolveOptions{}),
		http.StatusOK, "wait")
	openSt := postSolve(t, srvA.URL, slowBody(t, 12), http.StatusAccepted)
	waitState(t, srvA.URL, openSt.ID, 15*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	coordA.Close(ctx)
	cancel()
	srvA.Close()

	coordB, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(coordB.Handler())
	if err := coordB.Start(srvB.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		coordB.Close(ctx)
		srvB.Close()
	})

	// The finished job still answers, result and all, from the journal.
	if st := getJob(t, srvB.URL, doneSt.ID); st.State != service.StateDone || len(st.Result) == 0 {
		t.Fatalf("replayed terminal job = %+v", st)
	}
	// The open job was re-adopted (same ID) and is dispatchable: cancel
	// it through the new coordinator and it concludes.
	if st := getJob(t, srvB.URL, openSt.ID); service.TerminalState(st.State) {
		t.Fatalf("replayed open job already terminal: %+v", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, srvB.URL+"/jobs/"+openSt.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, srvB.URL, openSt.ID, 15*time.Second, func(st service.JobStatus) bool {
		return service.TerminalState(st.State)
	})
}

func TestClusterEventsProxyStaysMonotone(t *testing.T) {
	nodes := startNodes(t, 2, service.Config{})
	_, srv := startCoordinator(t, fastCfg(nodes))

	st := postSolve(t, srv.URL, slowBody(t, 21), http.StatusAccepted)
	waitState(t, srv.URL, st.ID, 15*time.Second, func(s service.JobStatus) bool {
		return s.Improvements >= 2
	})

	type ev = service.ProgressEvent
	events := make(chan ev, 256)
	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		var event string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event:"):
				event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			case strings.HasPrefix(line, "data:"):
				data := strings.TrimSpace(strings.TrimPrefix(line, "data:"))
				if event == "done" {
					streamDone <- nil
					return
				}
				var e ev
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					streamDone <- err
					return
				}
				events <- e
			}
		}
		streamDone <- sc.Err()
	}()

	// Give the stream a moment to replay, then cancel the job so the
	// stream terminates.
	time.Sleep(300 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("stream never terminated after cancel")
	}
	close(events)
	var got []ev
	for e := range events {
		got = append(got, e)
	}
	if len(got) == 0 {
		t.Fatal("proxy delivered no improvement events")
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.TardinessMs > a.TardinessMs ||
			(b.TardinessMs == a.TardinessMs && b.MakespanMs >= a.MakespanMs) {
			t.Fatalf("event %d (%v, %v) does not improve on (%v, %v)",
				i, b.TardinessMs, b.MakespanMs, a.TardinessMs, a.MakespanMs)
		}
	}
}

// scriptedNode is a fake node: it is always ready, accepts dispatch n
// as remote job rn, and answers every other request with answer.
func scriptedNode(t *testing.T, answer http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dispatches atomic.Int64
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			service.WriteJSON(w, http.StatusOK, service.ReadyStatus{Ready: true})
		case "/solve":
			n := dispatches.Add(1)
			service.WriteJSON(w, http.StatusAccepted,
				service.JobStatus{ID: fmt.Sprintf("r%d", n), State: service.StateRunning})
		default:
			answer(w, r)
		}
	}))
	t.Cleanup(node.Close)
	return node, &dispatches
}

// TestLostRemoteJobIsRedispatched: a remote job its node loses, whose
// status answers 404 as after a node restart or reports a cancel the
// coordinator never asked for as from a draining node, is dispatched
// again and finishes.
func TestLostRemoteJobIsRedispatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		lost func(w http.ResponseWriter)
	}{
		{"restarted node answers 404", func(w http.ResponseWriter) {
			service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "unknown job r1"})
		}},
		{"draining node cancels", func(w http.ResponseWriter) {
			service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: "r1", State: service.StateCanceled})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, dispatches := scriptedNode(t, func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/jobs/r1":
					tc.lost(w)
				case "/jobs/r2":
					service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: "r2", State: service.StateDone,
						Result: json.RawMessage(`{}`)})
				default:
					http.NotFound(w, r)
				}
			})
			_, srv := startCoordinator(t, cluster.Config{
				Nodes:        []cluster.Node{{Name: "n1", URL: node.URL}},
				PollInterval: 10 * time.Millisecond,
			})
			st := postSolve(t, srv.URL, submitBody(t, genProblem(6, 51), service.SolveOptions{}), http.StatusOK, "wait")
			if st.State != service.StateDone || string(st.Result) != `{}` {
				t.Fatalf("lost job ended %+v, want done with the second dispatch's result", st)
			}
			if n := dispatches.Load(); n != 2 {
				t.Errorf("%d dispatches, want 2", n)
			}
			if got := metric(t, srv.URL, "ftcluster_redispatches_total"); got != 1 {
				t.Errorf("redispatches = %v, want 1", got)
			}
		})
	}
}

// TestCoordinatorReadyz: a coordinator is ready only between Start and
// Close, with a live node to dispatch to.
func TestCoordinatorReadyz(t *testing.T) {
	node, _ := scriptedNode(t, http.NotFound)
	c, err := cluster.New(cluster.Config{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	ready := func(when string, want int) {
		t.Helper()
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st service.ReadyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("%s: decoding readyz: %v", when, err)
		}
		if resp.StatusCode != want || st.Ready != (want == http.StatusOK) {
			t.Errorf("%s: readyz answered %d %+v, want %d", when, resp.StatusCode, st, want)
		}
	}
	ready("before Start", http.StatusServiceUnavailable)
	if err := c.Start(front.URL); err != nil {
		t.Fatal(err)
	}
	ready("with a live node", http.StatusOK)
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ready("after Close", http.StatusServiceUnavailable)
}

// TestIdleSearchJournalsNoCheckpoint: the coordinator pulls a running
// job's checkpoint again only once its improvement count moves, so an
// idle search adds no checkpoint records to the journal.
func TestIdleSearchJournalsNoCheckpoint(t *testing.T) {
	var doc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&doc, ftdse.Checkpoint{
		Version: ftdse.CheckpointVersion, Fingerprint: "node-fp", Schedulable: true, MakespanMs: 100,
		Design: map[string][]ftdse.CheckpointReplica{"P1": {{Node: "N1"}}},
	}); err != nil {
		t.Fatal(err)
	}
	var improvements, pulls atomic.Int64
	improvements.Store(1)
	node, _ := scriptedNode(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/jobs/r1":
			service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: "r1", State: service.StateRunning,
				Improvements: int(improvements.Load())})
		case "/jobs/r1/checkpoint":
			pulls.Add(1)
			w.Write(doc.Bytes())
		default:
			http.NotFound(w, r)
		}
	})
	path := filepath.Join(t.TempDir(), "jobs.wal")
	_, srv := startCoordinator(t, cluster.Config{
		Nodes:              []cluster.Node{{Name: "n1", URL: node.URL}},
		Journal:            path,
		CheckpointInterval: 20 * time.Millisecond,
		PollInterval:       10 * time.Millisecond,
	})
	postSolve(t, srv.URL, submitBody(t, genProblem(6, 52), service.SolveOptions{}), http.StatusAccepted)
	records := func() int {
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(wal, []byte(`"type":"checkpoint"`))
	}
	waitPulls := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); pulls.Load() < n; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d checkpoint pulls, want %d", pulls.Load(), n)
			}
		}
	}
	waitPulls(1)
	time.Sleep(300 * time.Millisecond) // some 30 polls of an unchanged count
	if n, r := pulls.Load(), records(); n != 1 || r != 1 {
		t.Fatalf("an idle search was pulled %d times and journaled %d checkpoints, want 1 and 1", n, r)
	}
	improvements.Store(2)
	waitPulls(2)
	// A tie admits the newer document.
	for deadline := time.Now().Add(10 * time.Second); records() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("journaled %d checkpoints after a new improvement, want 2", records())
		}
	}
}

// TestCheckpointUnderCoordinatorFingerprint: a node that caps the time
// limit fingerprints a job apart from the coordinator, and the
// coordinator still keeps the job's checkpoint under its own
// fingerprint, the one a failover dispatch looks up.
func TestCheckpointUnderCoordinatorFingerprint(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{MaxTimeLimit: 3 * time.Second})
	coord, srv := startCoordinator(t, fastCfg(nodes))
	st := postSolve(t, srv.URL, slowBody(t, 53), http.StatusAccepted)
	for deadline := time.Now().Add(15 * time.Second); coord.LatestCheckpoint(st.Fingerprint) == nil; time.Sleep(10 * time.Millisecond) {
		if now := getJob(t, srv.URL, st.ID); service.TerminalState(now.State) || time.Now().After(deadline) {
			t.Fatalf("no checkpoint under the coordinator's fingerprint; the job is %s", now.State)
		}
	}
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(coord.LatestCheckpoint(st.Fingerprint)))
	if err != nil {
		t.Fatalf("stored checkpoint does not parse: %v", err)
	}
	if ck.Fingerprint == st.Fingerprint {
		t.Fatal("the node's time cap did not change the fingerprint, so this shows nothing")
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestDispatchedSolveNamesMember: the spans of a solve a coordinator
// dispatched name the member it ran on.
func TestDispatchedSolveNamesMember(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{})
	_, srv := startCoordinator(t, fastCfg(nodes))
	st := postSolve(t, srv.URL, submitBody(t, genProblem(6, 54),
		service.SolveOptions{MaxIterations: 3, Workers: 1}), http.StatusOK, "wait")
	var res service.JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if len(res.Spans) == 0 {
		t.Fatalf("result %+v carries no spans", res)
	}
	for _, sp := range res.Spans {
		if sp.Node != "n1" {
			t.Errorf("span %q names node %q, want n1", sp.Name, sp.Node)
		}
	}
}
