package bench

// Load-generation benchmarks for the ftdsed solve service: they drive
// the full HTTP path (queue admission, worker pool, solve, JSON
// encoding) through the typed client, measuring end-to-end submission
// throughput and the cache-hit fast path. Run with:
//
//	go test ./bench -bench BenchmarkService -run '^$'

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// benchService starts a service + HTTP server and a client against it.
func benchService(b *testing.B, cfg service.Config) *client.Client {
	b.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		srv.Close()
		if err := svc.Close(context.Background()); err != nil {
			b.Errorf("Close: %v", err)
		}
	})
	return client.New(srv.URL, srv.Client())
}

func benchProblem(seed int64) ftdse.Problem {
	return ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 6, Nodes: 2, Seed: seed},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
}

// BenchmarkServiceThroughput measures sustained end-to-end throughput
// under concurrent clients with the result cache disabled: the number
// reported is full-stack jobs/sec as the service actually behaves —
// completed submissions re-solve (no cache), while concurrent identical
// submissions may still coalesce onto one in-flight solve — the
// service-level counterpart of BenchmarkParallelSearch.
func BenchmarkServiceThroughput(b *testing.B) {
	c := benchService(b, service.Config{QueueSize: 1024, CacheSize: -1})
	// A pool of pre-generated distinct problems keeps generation out of
	// the hot loop.
	probs := make([]ftdse.Problem, 16)
	for i := range probs {
		probs[i] = benchProblem(int64(100 + i))
	}
	opts := service.SolveOptions{MaxIterations: 4, Workers: 1}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := probs[int(next.Add(1))%len(probs)]
			st, err := c.SubmitWait(context.Background(), p, opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != service.StateDone {
				b.Fatalf("job ended %s (%s)", st.State, st.Error)
			}
		}
	})
}

// BenchmarkServiceCacheHit measures the cache-hit fast path: one primed
// fingerprint answered over and over without touching the solver.
func BenchmarkServiceCacheHit(b *testing.B) {
	c := benchService(b, service.Config{})
	prob := benchProblem(7)
	opts := service.SolveOptions{MaxIterations: 4, Workers: 1}
	first, err := c.SubmitWait(context.Background(), prob, opts)
	if err != nil || first.State != service.StateDone {
		b.Fatalf("priming solve: %+v, %v", first, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			st, err := c.Submit(context.Background(), prob, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !st.Cached {
				b.Fatal("submission missed the cache")
			}
		}
	})
	b.StopTimer()
	m, err := c.Metrics(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if m["ftdse_solves_total"] != 1 {
		b.Fatalf("cache-hit benchmark re-solved: ftdse_solves_total = %v", m["ftdse_solves_total"])
	}
}

// BenchmarkServiceSubmitWaitHit measures one caller's SubmitWait cache
// hits on a problem the size of the serve workload's (16 processes, 3
// nodes, k = 2, a result document of about 2.7 KB): every hit sends the
// problem document and gets the stored result document back, so the
// time is mostly the two documents' trips through the client, the HTTP
// stack and the handler.
func BenchmarkServiceSubmitWaitHit(b *testing.B) {
	c := benchService(b, service.Config{})
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 16, Nodes: 3, Seed: 4},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
	opts := service.SolveOptions{MaxIterations: 10, Workers: 1}
	first, err := c.SubmitWait(context.Background(), prob, opts)
	if err != nil || first.State != service.StateDone {
		b.Fatalf("priming solve: %+v, %v", first, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.SubmitWait(context.Background(), prob, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("submission missed the cache")
		}
	}
}

// BenchmarkSubmitEncode measures what a SubmitBatch submission costs
// its caller before the request leaves: client.NewRequest and the
// request's JSON encoding, on a 20-process, 3-node, k = 2 problem.
// (Submit and SubmitWait build their body with service.AppendRequest
// instead; BenchmarkServiceSubmitWaitHit includes that.) "first"
// submits a Problem that was never sent (generated outside the timer),
// so the Problem encodes its document; "repeat" resubmits one Problem,
// which reuses the document its first submission encoded.
func BenchmarkSubmitEncode(b *testing.B) {
	spec := ftdse.GenSpec{Procs: 20, Nodes: 3, Seed: 9}
	fm := ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)}
	opts := service.SolveOptions{MaxIterations: 5, Workers: 1}
	encode := func(b *testing.B, p ftdse.Problem) {
		req, err := client.NewRequest(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := ftdse.GenerateProblem(spec, fm)
			b.StartTimer()
			encode(b, p)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		p := ftdse.GenerateProblem(spec, fm)
		encode(b, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode(b, p)
		}
	})
}
