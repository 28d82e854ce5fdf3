package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// The e2e crash/resume test runs real ftdsed processes and kills one
// with SIGKILL — no drain, no goodbye — mid-solve. It is the strongest
// form of the failover contract: the in-test integration suite can only
// sever HTTP; a killed process also takes the solve itself down, so the
// surviving node genuinely resumes from the last pulled checkpoint.

// freePort reserves a listen address and frees it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// buildFtdsed compiles the solver daemon once per test run.
func buildFtdsed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ftdsed")
	cmd := exec.Command("go", "build", "-o", bin, "repro/ftdse/cmd/ftdsed")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ftdsed: %v\n%s", err, out)
	}
	return bin
}

// startFtdsed launches one solver daemon process and waits for it to
// answer its liveness probe.
func startFtdsed(t *testing.T, bin, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-pool", "1")
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting ftdsed: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("ftdsed on %s never became healthy: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestE2ESIGKILLFailoverResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning e2e test")
	}
	bin := buildFtdsed(t)
	addrs := []string{freePort(t), freePort(t)}
	procs := make([]*exec.Cmd, 2)
	for i, addr := range addrs {
		procs[i] = startFtdsed(t, bin, addr)
	}

	cfg := cluster.Config{
		Nodes: []cluster.Node{
			{Name: "n1", URL: "http://" + addrs[0]},
			{Name: "n2", URL: "http://" + addrs[1]},
		},
		Journal:            filepath.Join(t.TempDir(), "jobs.wal"),
		CheckpointInterval: 25 * time.Millisecond,
		HealthInterval:     50 * time.Millisecond,
		PollInterval:       20 * time.Millisecond,
		FailAfter:          2,
	}
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

	// A slow-but-bounded solve: huge iteration budget, 4s time limit.
	// The limit restarts on the survivor, bounding the test either way.
	body := submitBody(t, genProblem(14, 42),
		service.SolveOptions{MaxIterations: 1_000_000, Workers: 1, TimeLimitMs: 4000})
	st := postSolve(t, srv.URL, body, http.StatusAccepted)

	// Wait for a checkpoint to land, then SIGKILL the owning process.
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
	var victim *exec.Cmd
	for i, name := range []string{"n1", "n2"} {
		if name == owner {
			victim = procs[i]
		}
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatalf("SIGKILL: %v", err)
	}
	victim.Wait()

	final := waitState(t, srv.URL, st.ID, 30*time.Second, func(s service.JobStatus) bool {
		return service.TerminalState(s.State)
	})
	if final.State != service.StateDone {
		t.Fatalf("job after SIGKILL = %+v", final)
	}
	var res service.JobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.TardinessMs > ckT || (res.TardinessMs == ckT && res.MakespanMs > ckM) {
		t.Fatalf("final cost (%v, %v) regressed past the checkpointed incumbent (%v, %v)",
			res.TardinessMs, res.MakespanMs, ckT, ckM)
	}
	if got := metric(t, srv.URL, "ftcluster_redispatches_total"); got < 1 {
		t.Fatalf("redispatches = %v, want >= 1", got)
	}
	if got := metric(t, srv.URL, "ftcluster_warm_dispatches_total"); got < 1 {
		t.Fatalf("warm_dispatches = %v, want >= 1", got)
	}

	// An identical resubmission after the failover is answered by the
	// surviving shard's result cache: same bytes, no re-solve.
	before := metric(t, srv.URL, "ftcluster_node_cache_hits_total")
	dup := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if dup.State != service.StateDone {
		t.Fatalf("post-failover duplicate = %+v", dup)
	}
	if !bytes.Equal(dup.Result, final.Result) {
		t.Fatal("post-failover duplicate returned a different result document")
	}
	if got := metric(t, srv.URL, "ftcluster_node_cache_hits_total"); got != before+1 {
		t.Fatalf("node_cache_hits went %v -> %v, want a cache hit on the surviving shard", before, got)
	}
}
