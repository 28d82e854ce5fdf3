package service

import (
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
)

// metrics aggregates the service's operational counters on an
// obs.Registry. Each Service owns its own registry (nothing is
// registered process-globally, so tests can build many services),
// rendered by GET /metrics in the Prometheus text format.
//
// Solve latency and queue wait are cumulative histograms — every
// observation since start — so scrapers get bucketed distributions and
// the service's own Retry-After estimate (retryAfterLocked) derives its
// median from the same data a dashboard would show.
type metrics struct {
	reg *obs.Registry

	solvesTotal    *obs.Counter
	engines        *obs.CounterVec
	solvesInFlight *obs.Gauge
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	jobsSubmitted  *obs.Counter
	jobsRejected   *obs.Counter // backpressure 429s
	jobsCoalesced  *obs.Counter // submissions attached to an identical in-flight solve
	solveLatency   *obs.Histogram
	queueWait      *obs.Histogram

	// Cluster tier (see cluster.go): solves seeded from a checkpoint,
	// and incumbent checkpoints pushed to (or dropped on the way to)
	// the coordinator.
	warmStarts           *obs.Counter
	checkpointsPushed    *obs.Counter
	checkpointPushErrors *obs.Counter
}

// latencyBuckets spans 1ms to ~17min exponentially — solves range from
// cache-warm milliseconds to budgeted minutes.
func latencyBuckets() []float64 { return obs.ExponentialBuckets(0.001, 2, 21) }

// newMetrics builds the registry. queueDepth and cacheLen are read live
// at every scrape.
func newMetrics(queueDepth func() int, queueCap int, cacheLen func() int) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:            r,
		solvesTotal:    r.NewCounter("ftdse_solves_total", "Solves actually executed (cache hits excluded)."),
		engines:        r.NewCounterVec("ftdse_solves_by_engine_total", "Solves executed per search engine.", "engine"),
		solvesInFlight: r.NewGauge("ftdse_solves_in_flight", "Solves currently running."),
		cacheHits:      r.NewCounter("ftdse_cache_hits_total", "Submissions answered from the result cache."),
		cacheMisses:    r.NewCounter("ftdse_cache_misses_total", "Submissions that required a solve."),
		jobsSubmitted:  r.NewCounter("ftdse_jobs_submitted_total", "Jobs enqueued for solving."),
		jobsRejected:   r.NewCounter("ftdse_jobs_rejected_total", "Submissions rejected by queue backpressure (429)."),
		jobsCoalesced:  r.NewCounter("ftdse_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job."),
		solveLatency: r.NewHistogram("ftdse_solve_latency_seconds",
			"Wall-clock latency of completed solves.", latencyBuckets()),
		queueWait: r.NewHistogram("ftdse_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", latencyBuckets()),
		warmStarts:           r.NewCounter("ftdse_warm_starts_total", "Solves seeded from a warm-start checkpoint."),
		checkpointsPushed:    r.NewCounter("ftdse_checkpoints_pushed_total", "Incumbent checkpoints pushed to the coordinator."),
		checkpointPushErrors: r.NewCounter("ftdse_checkpoint_push_errors_total", "Checkpoint pushes that failed."),
	}
	r.NewGaugeFunc("ftdse_queue_depth", "Jobs waiting for a worker.",
		func() float64 { return float64(queueDepth()) })
	r.NewGaugeFunc("ftdse_queue_capacity", "Queue slots before submissions are rejected.",
		func() float64 { return float64(queueCap) })
	r.NewGaugeFunc("ftdse_cache_len", "Entries in the LRU result cache.",
		func() float64 { return float64(cacheLen()) })
	// The solver's move-evaluation hot path: scheduling passes, memo
	// cache traffic, and scratch-arena allocs vs. reuses. Process-wide
	// (the evaluator is per-run, the counters are global), so services
	// sharing a process see combined numbers.
	evals := []struct {
		name, help string
		read       func(ftdse.EvaluatorMetrics) int64
	}{
		{"ftdse_evaluator_scheduling_passes_total", "Scheduling passes run by the move evaluator.",
			func(e ftdse.EvaluatorMetrics) int64 { return e.SchedulingPasses }},
		{"ftdse_evaluator_cache_hits_total", "Move evaluations answered from the memo cache.",
			func(e ftdse.EvaluatorMetrics) int64 { return e.CacheHits }},
		{"ftdse_evaluator_cache_misses_total", "Move evaluations that required a scheduling pass.",
			func(e ftdse.EvaluatorMetrics) int64 { return e.CacheMisses }},
		{"ftdse_evaluator_scratch_allocs_total", "Evaluation scratch arenas allocated.",
			func(e ftdse.EvaluatorMetrics) int64 { return e.ScratchAllocs }},
		{"ftdse_evaluator_scratch_reuses_total", "Evaluation scratch arenas reused from the pool.",
			func(e ftdse.EvaluatorMetrics) int64 { return e.ScratchReuses }},
	}
	for _, ev := range evals {
		read := ev.read
		//ftlint:allow metrics the names are string literals in the evals table just above; the loop only threads them through
		r.NewCounterFunc(ev.name, ev.help,
			func() float64 { return float64(read(ftdse.ReadEvaluatorMetrics())) })
	}
	return m
}

// observeSolve records one completed solve's wall-clock latency.
func (m *metrics) observeSolve(d time.Duration) { m.solveLatency.Observe(d.Seconds()) }

// observeQueueWait records how long one job waited for a worker.
func (m *metrics) observeQueueWait(d time.Duration) { m.queueWait.Observe(d.Seconds()) }
