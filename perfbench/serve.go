package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// serveOpts is what every submission of the serve workloads asks for:
// a small budget and one evaluator worker, so a fresh solve takes
// about 10 ms.
var serveOpts = service.SolveOptions{MaxIterations: 10, Workers: 1}

// Serve workload shape.
const (
	callers       = 2   // closed-loop callers, one connection each
	gmeanPrefix   = 512 // makespan_gmean_ms covers the problems of operations [0, gmeanPrefix)
	offlineSample = 4   // hot and fresh problems each re-solved offline
	sideInputs    = 64  // problems the codec and fingerprint timings use
)

func runServe(cfg runConfig) (*report, error) { return runServeWorkload(cfg, false) }

func runServeCluster(cfg runConfig) (*report, error) { return runServeWorkload(cfg, true) }

// serveEnv is the in-process system under test: one service, or a
// coordinator over two single-worker nodes, behind loopback servers.
type serveEnv struct {
	coord   *cluster.Coordinator
	svcs    []*service.Service
	servers []*httptest.Server // node servers first, the coordinator's last
	front   string             // base URL the callers use
	nodes   []*client.Client   // one per node, for its /metrics
	httpc   *http.Client
	cl      *client.Client
}

func startEnv(clustered bool) (*serveEnv, error) {
	e := &serveEnv{}
	pool := 0 // ftdsed's default: GOMAXPROCS workers
	n := 1
	if clustered {
		pool, n = 1, 2
	}
	var members []cluster.Node
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{PoolWorkers: pool})
		srv := httptest.NewServer(svc.Handler())
		e.svcs = append(e.svcs, svc)
		e.servers = append(e.servers, srv)
		e.nodes = append(e.nodes, client.New(srv.URL, srv.Client()))
		members = append(members, cluster.Node{Name: fmt.Sprintf("node-%d", i), URL: srv.URL})
	}
	e.front = e.servers[0].URL
	if clustered {
		coord, err := cluster.New(cluster.Config{Nodes: members})
		if err != nil {
			e.close()
			return nil, err
		}
		e.coord = coord
		srv := httptest.NewServer(coord.Handler())
		e.servers = append(e.servers, srv)
		e.front = srv.URL
		if err := coord.Start(srv.URL); err != nil {
			e.close()
			return nil, err
		}
	}
	e.httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}}
	e.cl = client.New(e.front, e.httpc)
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.coord != nil {
		e.coord.Close(ctx)
	}
	for _, svc := range e.svcs {
		svc.Close(ctx)
	}
	for _, srv := range e.servers {
		srv.Close()
	}
	if e.httpc != nil {
		e.httpc.CloseIdleConnections()
	}
}

// prime solves the hot set on every node, all submissions at once, so
// the timed phase finds it cached wherever the coordinator sends it.
// Priming the nodes directly keeps the coordinator's 250 ms status poll
// out of the set-up time, which it would otherwise round up to whole
// poll ticks.
func (e *serveEnv) prime(t *serveTraffic) error {
	var errs []error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, node := range e.nodes {
		for i := 0; i < t.hot; i++ {
			wg.Add(1)
			go func(node *client.Client, i int) {
				defer wg.Done()
				st, err := node.SubmitWait(context.Background(), t.problems[i].problem, serveOpts)
				if err == nil && st.State != service.StateDone {
					err = fmt.Errorf("ended %s: %s", st.State, st.Error)
				}
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}(node, i)
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("priming the hot set: %w", err)
	}
	return nil
}

// serveOp is one SubmitWait of the timed phase.
type serveOp struct {
	seq, problem int
	ms           float64
	at           interval
	id, trace    string // the job status's id and trace ID
	cached       bool
	state        string
	body         int // index of the interned result document, -1 if none
	err          error
}

// bodies interns result documents: a cache hit returns the stored
// document byte for byte, so the run keeps one copy per solve, which
// serves as both the index key and the document.
type bodies struct {
	mu    sync.Mutex
	index map[string]int
	docs  []string
}

func (b *bodies) intern(doc []byte) int {
	if len(doc) == 0 {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, ok := b.index[string(doc)]; ok {
		return i
	}
	key := string(doc)
	b.index[key] = len(b.docs)
	b.docs = append(b.docs, key)
	return len(b.docs) - 1
}

// drive runs the closed-loop callers from start until the deadline has
// passed and the first prefix operations have started, and returns the
// operations in sequence order.
func drive(cl *client.Client, t *serveTraffic, start, deadline time.Time, prefix int, rec *recorder, docs *bodies) []serveOp {
	var next atomic.Int64
	per := make([][]serveOp, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= prefix && !time.Now().Before(deadline) {
					return
				}
				op := serveOp{seq: i, problem: t.seq[i%len(t.seq)]}
				id := rec.begin("client.SubmitWait", i+1, 0)
				t0 := time.Now()
				st, err := cl.SubmitWait(context.Background(), t.problems[op.problem].problem, serveOpts)
				op.at = interval{t0.Sub(start), time.Since(start)}
				op.ms = float64(op.at.end-op.at.start) / float64(time.Millisecond)
				rec.end(id)
				op.err, op.id, op.trace, op.cached, op.state = err, st.ID, st.TraceID, st.Cached, st.State
				op.body = docs.intern(st.Result)
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	var ops []serveOp
	for _, p := range per {
		ops = append(ops, p...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].seq < ops[j].seq })
	return ops
}

// decoded is one distinct result document, parsed, with its server
// spans picked out.
type decoded struct {
	res              service.JobResult
	err              error // decoding the document or its schedule
	queueWait, solve float64
	hasSpans         bool
}

func decodeBodies(docs []string) []decoded {
	out := make([]decoded, len(docs))
	for i, doc := range docs {
		d := &out[i]
		if d.err = json.Unmarshal([]byte(doc), &d.res); d.err != nil {
			continue
		}
		if _, d.err = ftdse.ReadSchedule(bytes.NewReader(d.res.Schedule)); d.err != nil {
			continue
		}
		var qw, sv bool
		for _, s := range d.res.Spans {
			switch s.Name {
			case "queue_wait":
				d.queueWait, qw = s.DurationMs, true
			case "solve":
				d.solve, sv = s.DurationMs, true
			}
		}
		d.hasSpans = qw && sv
	}
	return out
}

// isHit is the hit-detection rule: the client mints a trace ID per
// submission, the job status carries the submission's (or, when it
// coalesced, the shared solve's) ID, and a cached result document keeps
// the trace ID of the solve that produced it. So a result whose trace
// ID differs from its status's was answered from a cache. It holds
// against the coordinator too, which never sets JobStatus.Cached.
func isHit(statusTrace, resultTrace string) bool { return statusTrace != resultTrace }

func runServeWorkload(cfg runConfig, clustered bool) (*report, error) {
	rep := &report{metrics: make(map[string]float64)}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}

	// Set-up: generate the traffic, start the daemons and prime the hot
	// set. The last environment set up serves the timed phase.
	var env *serveEnv
	var traffic *serveTraffic
	var setup []float64
	for r := 0; r < setupRuns; r++ {
		if env != nil {
			env.close()
			env, traffic = nil, nil
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if traffic, err = newServeTraffic(cfg.seed, cfg.size); err != nil {
			return nil, err
		}
		if env, err = startEnv(clustered); err != nil {
			return nil, err
		}
		if err := env.prime(traffic); err != nil {
			env.close()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer env.close()

	before, err := env.scrape()
	if err != nil {
		return nil, err
	}
	docs := &bodies{index: make(map[string]int)}
	ph := startPhase()
	prefix := gmeanPrefix
	if cfg.size == tinySize {
		prefix = 0
	}
	ops := drive(env.cl, traffic, ph.start, ph.start.Add(cfg.seconds), prefix, rec, docs)
	ps := ph.stop()

	// Untimed output checks.
	dec := decodeBodies(docs.docs)
	makespanOf := make(map[int]float64) // problem → makespan
	idOps := make(map[string][]int)     // job id → ops (positions in ops)
	var hitLat, missLat, lat, queueWaits, solves, overheads, gm []float64
	var at []interval
	var rejected, hits int
	hitIDs := make(map[string]bool)
	jobIDs := make(map[string]bool)
	for i, op := range ops {
		rep.attempted++
		lat = append(lat, op.ms)
		at = append(at, op.at)
		var qf *client.QueueFullError
		var se *client.StatusError
		switch {
		case errors.As(op.err, &qf) || (errors.As(op.err, &se) && se.Code == http.StatusServiceUnavailable):
			rejected++
			rep.failed++
			rep.fail("op %d rejected: %v", op.seq, op.err)
			continue
		case op.err != nil:
			rep.failed++
			rep.fail("op %d: %v", op.seq, op.err)
			continue
		case op.state != service.StateDone || op.body < 0:
			rep.failed++
			rep.fail("op %d ended %q", op.seq, op.state)
			continue
		}
		d := dec[op.body]
		if d.err != nil {
			rep.failed++
			rep.fail("op %d: result document: %v", op.seq, d.err)
			continue
		}
		mk := d.res.MakespanMs
		if prev, ok := makespanOf[op.problem]; ok && prev != mk {
			rep.fail("problem %s answered δ=%g ms and δ=%g ms", traffic.problems[op.problem].name, prev, mk)
		} else if !ok && op.seq < gmeanPrefix {
			gm = append(gm, mk)
		}
		makespanOf[op.problem] = mk
		jobIDs[op.id] = true
		hit := isHit(op.trace, d.res.TraceID)
		if !clustered && hit != op.cached {
			rep.fail("op %d: trace rule says hit=%t, service says cached=%t", op.seq, hit, op.cached)
		}
		if hit {
			hits++
			hitIDs[op.id] = true
			hitLat = append(hitLat, op.ms)
			continue
		}
		missLat = append(missLat, op.ms)
		idOps[op.id] = append(idOps[op.id], i)
	}
	// Operations that share a job coalesced onto it. Of a solved job,
	// only the first operation's latency pairs with the job's spans.
	coalesced := len(ops) - rep.failed - len(jobIDs)
	for id, list := range idOps {
		op := ops[list[0]]
		d := dec[op.body]
		if !d.hasSpans {
			rep.fail("job %s result carries no queue_wait and solve spans", id)
			continue
		}
		queueWaits = append(queueWaits, d.queueWait)
		solves = append(solves, d.solve)
		overheads = append(overheads, op.ms-d.queueWait-d.solve)
	}

	after, err := env.scrapeSettled(before, len(jobIDs))
	if err != nil {
		return nil, err
	}
	checkCounters(rep, before, after, ps, counts{
		hits: hits, hitJobs: len(hitIDs), jobs: len(jobIDs),
		solved: len(idOps), coalesced: coalesced, rejected: rejected,
	})

	// A sample of hot and fresh problems must match an offline solve.
	sample := offlineProblems(traffic, ops)
	offline := ftdse.NewSolver(ftdse.WithMaxIterations(serveOpts.MaxIterations), ftdse.WithWorkers(serveOpts.Workers))
	if rec != nil {
		offline = offline.With(ftdse.WithEngine(ftdse.PipelineEngine{Label: "default", Stages: []ftdse.Engine{
			timedEngine{ftdse.GreedyEngine{}, rec}, timedEngine{ftdse.TabuEngine{}, rec},
		}}))
	}
	var sampleOps []dseOp
	var evals []evalCase
	for k, pi := range sample {
		in := traffic.problems[pi]
		res, op, err := solveOnce(offline, rec, -(k + 1), in.problem)
		if err != nil {
			rep.fail("offline solve of %s: %v", in.name, err)
			continue
		}
		if got := res.Cost.Makespan.Milliseconds(); got != makespanOf[pi] {
			rep.fail("%s: offline solve gives δ=%g ms, the service answered %g ms", in.name, got, makespanOf[pi])
		}
		sampleOps = append(sampleOps, op)
		evals = append(evals, evalCase{in.problem, res.Design})
	}

	m := rep.metrics
	endToEndMetrics(m, cfg, lat, at, ps, setup)
	m["failed_share"] = failedShare(rep.failed, rep.attempted)
	m["makespan_gmean_ms"] = gmean(gm)
	rep.note("%d operations in %.2f s: %d answered from a cache, %d coalesced, %d jobs solved; latency_tail_ms is p%g of %d samples (%d beyond it)",
		len(ops), ps.wall.Seconds(), hits, coalesced, len(idOps), cfg.tailP, len(lat), beyond(len(lat), cfg.tailP))

	if !cfg.traced {
		return rep, nil
	}
	n := float64(len(ops))
	m["service.hit_ms"] = median(hitLat)
	m["service.hit_tail_ms"] = tail(hitLat)
	m["service.miss_ms"] = median(missLat)
	m["service.miss_tail_ms"] = tail(missLat)
	m["service.queue_wait_ms"] = median(queueWaits)
	m["service.queue_wait_tail_ms"] = tail(queueWaits)
	m["service.solve_ms"] = median(solves)
	m["service.overhead_ms"] = median(overheads)
	m["service.hit_ratio"] = ratio(float64(hits), n)
	m["service.coalesced_ratio"] = ratio(float64(coalesced), n)
	m["service.rejected"] = float64(rejected)
	if clustered {
		delta := func(name string) float64 { return after.front[name] - before.front[name] }
		m["cluster.hit_ms"] = median(hitLat)
		m["cluster.overhead_ms"] = median(overheads)
		m["cluster.overhead_tail_ms"] = tail(overheads)
		m["cluster.dispatches_per_job"] = ratio(delta("ftcluster_dispatches_total"), delta("ftcluster_jobs_submitted_total"))
		m["cluster.node_hit_ratio"] = ratio(delta("ftcluster_node_cache_hits_total"), delta("ftcluster_dispatches_total"))
		m["cluster.coalesced_ratio"] = ratio(delta("ftcluster_jobs_coalesced_total"), n)
		m["cluster.steals"] = delta("ftcluster_steals_total")
		m["cluster.redispatches"] = delta("ftcluster_redispatches_total")
	}

	// The service's solves ran in this process during the timed phase:
	// the evaluator counters cover exactly them.
	var iters []float64
	for _, list := range idOps {
		iters = append(iters, float64(dec[ops[list[0]].body].res.Iterations))
	}
	ev := ps.eval
	m["engine.iterations"] = mean(iters)
	m["eval.passes"] = ratio(float64(ev.SchedulingPasses), float64(len(idOps)))
	m["eval.memo_hit_ratio"] = ratio(float64(ev.CacheHits), float64(ev.CacheHits+ev.CacheMisses))
	var solveTotal float64
	for _, s := range solves {
		solveTotal += s
	}
	m["eval.pass_us"] = ratio(solveTotal*1000, float64(ev.SchedulingPasses))
	evalRatios(m, ev, ps)
	gcMetrics(m, ps, len(ops))
	// The offline sample's solves are the only ones the benchmark can
	// decorate on these workloads.
	solveLayers(m, rec.snapshot(), sampleOps)

	var side []input
	for _, pi := range sortedKeys(makespanOf) {
		if len(side) == sideInputs {
			break
		}
		side = append(side, traffic.problems[pi])
	}
	err = sideTimings(rep, rec, side, evals, serveOpts)
	rep.spans = rec.snapshot()
	return rep, err
}

// offlineProblems picks the sample re-solved offline: the first hot
// problems and the first fresh problems the run answered.
func offlineProblems(t *serveTraffic, ops []serveOp) []int {
	var hot, fresh []int
	seen := make(map[int]bool)
	for _, op := range ops {
		if op.err != nil || seen[op.problem] {
			continue
		}
		seen[op.problem] = true
		if op.problem < t.hot && len(hot) < offlineSample {
			hot = append(hot, op.problem)
		} else if op.problem >= t.hot && len(fresh) < offlineSample {
			fresh = append(fresh, op.problem)
		}
	}
	return append(hot, fresh...)
}

func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
