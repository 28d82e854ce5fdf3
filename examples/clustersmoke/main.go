// clustersmoke is the end-to-end smoke test of the cluster tier, run by
// CI against a freshly started ftclusterd + two ftdsed nodes: it
// submits a batch of solve jobs through the coordinator with the
// retrying client, SIGKILLs one solver node mid-batch (when -kill-pid
// is given), then waits for every job and verifies drain-free recovery:
// zero lost jobs — every submission reaches "done" with a result —
// plus at least one live shard left standing, and at least one search
// checkpoint pulled into the coordinator. It exits non-zero on any
// violation and writes the shard-stats document to -shards-out for CI
// to upload as an artifact. After the storm it submits one small fresh
// problem twice and requires the second answer to be a cache hit: the
// coordinator reports it Cached, with the first answer's fingerprint and
// byte-identical result bytes. With -trace-out it additionally submits one
// flight-recorded solve through the coordinator, verifies the single
// trace ID contract (submission status, every SSE event, and the final
// result carry the same id), and writes the search trace JSONL there.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8390", "ftclusterd base URL")
	jobs := flag.Int("jobs", 6, "distinct problems to submit")
	killPid := flag.Int("kill-pid", 0, "solver node PID to SIGKILL mid-batch (0 = no kill)")
	shardsOut := flag.String("shards-out", "", "write the final /cluster/shards document here")
	traceOut := flag.String("trace-out", "", "run one flight-recorded solve and write its trace JSONL here")
	flag.Parse()
	log.SetFlags(0)

	c := client.New(*addr, nil, client.WithRetry(5, 10*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	deadline := time.Now().Add(20 * time.Second)
	for !c.Healthy(ctx) {
		if time.Now().After(deadline) {
			log.Fatalf("clustersmoke: %s did not become healthy within 20s", *addr)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// A batch of distinct problems, slow enough (bounded by the time
	// limit) that the node kill lands mid-solve.
	reqs := make([]service.SubmitRequest, *jobs)
	for i := range reqs {
		prob := ftdse.GenerateProblem(
			ftdse.GenSpec{Procs: 12, Nodes: 3, Seed: int64(100 + i)},
			ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
		req, err := client.NewRequest(prob, service.SolveOptions{
			MaxIterations: 1_000_000, Workers: 1, TimeLimitMs: 5000,
		})
		if err != nil {
			log.Fatalf("clustersmoke: building request: %v", err)
		}
		reqs[i] = req
	}
	sts, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		log.Fatalf("clustersmoke: batch submit: %v", err)
	}
	fmt.Printf("submitted %d jobs\n", len(sts))

	if *killPid != 0 {
		// Let the batch spread onto the shards, then kill one node hard.
		time.Sleep(1 * time.Second)
		proc, err := os.FindProcess(*killPid)
		if err == nil {
			err = proc.Kill()
		}
		if err != nil {
			log.Fatalf("clustersmoke: SIGKILL pid %d: %v", *killPid, err)
		}
		fmt.Printf("SIGKILLed node pid %d mid-batch\n", *killPid)
	}

	// Zero lost jobs: every submission must reach "done" with a result,
	// even the ones that were in flight on the killed node.
	lost := 0
	for _, st := range sts {
		final := st
		for !service.TerminalState(final.State) {
			time.Sleep(250 * time.Millisecond)
			final, err = c.Job(ctx, st.ID)
			if err != nil {
				log.Fatalf("clustersmoke: polling %s: %v", st.ID, err)
			}
		}
		if final.State != service.StateDone || len(final.Result) == 0 {
			fmt.Printf("LOST: job %s ended %q (%s)\n", final.ID, final.State, final.Error)
			lost++
			continue
		}
		res, err := client.Result(final)
		if err != nil {
			log.Fatalf("clustersmoke: result of %s: %v", final.ID, err)
		}
		fmt.Printf("  %s done: δ=%.3fms schedulable=%v\n", final.ID, res.MakespanMs, res.Schedulable)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("clustersmoke: metrics: %v", err)
	}
	fmt.Printf("dispatches=%v redispatches=%v steals=%v warm_dispatches=%v checkpoints_received=%v nodes_alive=%v\n",
		m["ftcluster_dispatches_total"], m["ftcluster_redispatches_total"],
		m["ftcluster_steals_total"], m["ftcluster_warm_dispatches_total"],
		m["ftcluster_checkpoints_received_total"], m["ftcluster_nodes_alive"])

	shards, err := fetchShards(ctx, *addr)
	if err != nil {
		log.Fatalf("clustersmoke: shards: %v", err)
	}
	fmt.Printf("shard map: %s\n", shards)
	if *shardsOut != "" {
		if err := os.WriteFile(*shardsOut, shards, 0o644); err != nil {
			log.Fatalf("clustersmoke: writing %s: %v", *shardsOut, err)
		}
	}

	if lost > 0 {
		log.Fatalf("clustersmoke: %d of %d jobs lost", lost, len(sts))
	}
	// Every job searches for seconds, longer than the coordinator's
	// checkpoint cadence (1s by default), so it must have pulled some.
	if m["ftcluster_checkpoints_received_total"] < 1 {
		log.Fatalf("clustersmoke: no checkpoint reached the coordinator")
	}
	if *killPid != 0 {
		if m["ftcluster_redispatches_total"] < 1 {
			log.Fatalf("clustersmoke: node killed but redispatches = %v", m["ftcluster_redispatches_total"])
		}
		if m["ftcluster_nodes_alive"] < 1 {
			log.Fatalf("clustersmoke: no live nodes left")
		}
	}
	cacheRun(ctx, c)
	if *traceOut != "" {
		traceRun(ctx, c, *traceOut)
	}
	fmt.Printf("ok: %d/%d jobs done, zero lost\n", len(sts), len(sts))
}

// cacheRun submits one fresh problem twice through the coordinator and
// verifies that the second answer comes from the owning node's result
// cache: the coordinator marks it Cached, and its fingerprint and result
// bytes equal the first answer's.
func cacheRun(ctx context.Context, c *client.Client) {
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 8, Nodes: 3, Seed: 500},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	opts := service.SolveOptions{MaxIterations: 30, Workers: 1}
	first, err := c.SubmitWait(ctx, prob, opts)
	if err != nil {
		log.Fatalf("clustersmoke: cache probe submit: %v", err)
	}
	if first.State != service.StateDone || first.Cached {
		log.Fatalf("clustersmoke: cache probe first answer: state %q cached %t (%s)",
			first.State, first.Cached, first.Error)
	}
	second, err := c.SubmitWait(ctx, prob, opts)
	if err != nil {
		log.Fatalf("clustersmoke: cache probe resubmit: %v", err)
	}
	switch {
	case second.State != service.StateDone || !second.Cached:
		log.Fatalf("clustersmoke: resubmission not a cache hit: state %q cached %t", second.State, second.Cached)
	case second.Fingerprint != first.Fingerprint:
		log.Fatalf("clustersmoke: resubmission fingerprint %s, want %s", second.Fingerprint, first.Fingerprint)
	case !bytes.Equal(second.Result, first.Result):
		log.Fatalf("clustersmoke: cache hit returned different result bytes")
	}
	fmt.Printf("cache hit: %s answered from the node cache (fingerprint %s)\n", second.ID, second.Fingerprint)
}

// traceRun submits one flight-recorded solve through the coordinator,
// verifies the single-trace-ID contract across the submission status,
// every SSE event and the final result, and writes the search trace
// JSONL to path for CI to upload.
func traceRun(ctx context.Context, c *client.Client, path string) {
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 12, Nodes: 3, Seed: 7},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	st, err := c.Submit(ctx, prob, service.SolveOptions{
		MaxIterations: 60, Workers: 1, FlightRecorder: true,
	})
	if err != nil {
		log.Fatalf("clustersmoke: trace submit: %v", err)
	}
	if st.TraceID == "" {
		log.Fatalf("clustersmoke: trace submission came back without a trace id")
	}
	final, err := c.Stream(ctx, st.ID, func(ev service.ProgressEvent) {
		if ev.TraceID != st.TraceID {
			log.Fatalf("clustersmoke: event trace id %q, want %q", ev.TraceID, st.TraceID)
		}
	})
	if err != nil {
		log.Fatalf("clustersmoke: trace stream: %v", err)
	}
	if final.State != service.StateDone {
		log.Fatalf("clustersmoke: trace job ended %q (%s)", final.State, final.Error)
	}
	res, err := client.Result(final)
	if err != nil {
		log.Fatalf("clustersmoke: trace result: %v", err)
	}
	if res.TraceID != st.TraceID {
		log.Fatalf("clustersmoke: result trace id %q, want %q", res.TraceID, st.TraceID)
	}
	if res.TraceJSONL == "" {
		log.Fatalf("clustersmoke: flight-recorded solve returned no trace document")
	}
	if err := os.WriteFile(path, []byte(res.TraceJSONL), 0o644); err != nil {
		log.Fatalf("clustersmoke: writing %s: %v", path, err)
	}
	fmt.Printf("trace %s: %d spans, flight recording written to %s\n",
		st.TraceID, len(res.Spans), path)
}

// fetchShards grabs the raw /cluster/shards document (pretty-printed).
func fetchShards(ctx context.Context, base string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/cluster/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var pretty json.RawMessage = raw
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		return raw, nil
	}
	return out, nil
}
