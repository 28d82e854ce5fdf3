package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/ftdse"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 5

// phase brackets the timed phase of a run.
type phase struct {
	start time.Time
	cpu   time.Duration
	gcCPU float64
	numGC uint32
	eval  ftdse.EvaluatorMetrics
}

// startPhase collects the set-up's garbage, so that the timed phase
// starts from the same heap on every run, and opens the phase.
func startPhase() *phase {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &phase{
		start: time.Now(),
		cpu:   processCPU(),
		gcCPU: gcCPUSeconds(),
		numGC: ms.NumGC,
		eval:  ftdse.ReadEvaluatorMetrics(),
	}
}

// stop ends the phase and returns the process-level deltas.
func (p *phase) stop() phaseStats {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseStats{
		wall:  wall,
		cpu:   cpu,
		gcCPU: gcCPUSeconds() - p.gcCPU,
		numGC: int(ms.NumGC - p.numGC),
		eval:  evalDelta(p.eval, ftdse.ReadEvaluatorMetrics()),
	}
}

type phaseStats struct {
	wall, cpu time.Duration
	gcCPU     float64
	numGC     int
	eval      ftdse.EvaluatorMetrics
}

func evalDelta(before, after ftdse.EvaluatorMetrics) ftdse.EvaluatorMetrics {
	return ftdse.EvaluatorMetrics{
		SchedulingPasses: after.SchedulingPasses - before.SchedulingPasses,
		CacheHits:        after.CacheHits - before.CacheHits,
		CacheMisses:      after.CacheMisses - before.CacheMisses,
		ScratchAllocs:    after.ScratchAllocs - before.ScratchAllocs,
		ScratchReuses:    after.ScratchReuses - before.ScratchReuses,
	}
}

// endToEndMetrics fills the metrics every workload reports the same way
// from the operations' latencies and intervals and the phase deltas.
func endToEndMetrics(m map[string]float64, cfg runConfig, lat []float64, at []interval, ps phaseStats, setup []float64) {
	n := len(lat)
	m["latency_p50_ms"] = median(lat)
	m["latency_tail_ms"] = percentile(lat, cfg.tailP)
	m["throughput_ops_s"] = windowedRate(at, ps.wall)
	if cfg.traced {
		// Against the untraced runs' median, the tracing overhead.
		m["trace.throughput_ops_s"] = m["throughput_ops_s"]
	}
	m["cpu_ms_per_op"] = ratio(float64(ps.cpu)/float64(time.Millisecond), float64(n))
	m["peak_rss_mb"] = peakRSSMB()
	m["setup_s"] = median(setup)
}

// gcMetrics fills the garbage-collector metrics of the traced run.
func gcMetrics(m map[string]float64, ps phaseStats, ops int) {
	m["gc.cycles"] = ratio(float64(ps.numGC), float64(ops))
	m["gc.cpu_fraction"] = ratio(ps.gcCPU, ps.cpu.Seconds())
}

// evalRatios fills the evaluator metrics every workload computes alike.
func evalRatios(m map[string]float64, ev ftdse.EvaluatorMetrics, ps phaseStats) {
	m["eval.scratch_reuse_ratio"] = ratio(float64(ev.ScratchReuses), float64(ev.ScratchReuses+ev.ScratchAllocs))
	m["eval.parallelism"] = ratio(ps.cpu.Seconds(), ps.wall.Seconds())
}
