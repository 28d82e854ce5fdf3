package bench

// Load-generation benchmarks for the ftdsed solve service: they drive
// the full HTTP path (queue admission, worker pool, solve, JSON
// encoding) through the typed client, measuring end-to-end submission
// throughput and the cache-hit fast path. Run with:
//
//	go test ./bench -bench BenchmarkService -run '^$'

import (
	"context"
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
