package main

import (
	"context"
	"fmt"
	"time"
)

// scrapeSet is one reading of the /metrics pages of a serve workload:
// the page the callers' endpoint serves (the service, or the
// coordinator) and each node's page (for serve, the service's again).
type scrapeSet struct {
	front map[string]float64
	nodes []map[string]float64
}

func (e *serveEnv) scrape() (scrapeSet, error) {
	ctx := context.Background()
	var s scrapeSet
	var err error
	if s.front, err = e.cl.Metrics(ctx); err != nil {
		return s, fmt.Errorf("scraping %s/metrics: %w", e.front, err)
	}
	for i, n := range e.nodes {
		m, err := n.Metrics(ctx)
		if err != nil {
			return s, fmt.Errorf("scraping node %d /metrics: %w", i, err)
		}
		s.nodes = append(s.nodes, m)
	}
	return s, nil
}

// scrapeSettled scrapes after the timed phase. The coordinator counts a
// job completed just after it answers the waiting caller, so a scrape
// right after the last answer may miss it: retry for up to two seconds
// until every job the callers saw counts as completed.
func (e *serveEnv) scrapeSettled(before scrapeSet, jobs int) (scrapeSet, error) {
	const name = "ftcluster_jobs_completed_total"
	for tries := 0; ; tries++ {
		s, err := e.scrape()
		if err != nil || e.coord == nil || tries == 40 ||
			s.front[name]-before.front[name] >= float64(jobs) {
			return s, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// counts are the benchmark's own tallies of the timed phase.
type counts struct {
	hits, hitJobs, jobs, solved, coalesced, rejected int
}

// checkCounters checks the counters the daemons export on /metrics
// against the benchmark's own tallies and against the evaluator
// counters ftdse.ReadEvaluatorMetrics reports in this process: offline
// and live numbers must be the same numbers.
func checkCounters(rep *report, before, after scrapeSet, ps phaseStats, c counts) {
	clustered := len(after.nodes) > 1
	want := func(page string, got, expect float64, what string) {
		if got != expect {
			rep.fail("%s: %s counts %g, the benchmark counts %g", page, what, got, expect)
		}
	}
	node := func(i int, name string) float64 { return after.nodes[i][name] - before.nodes[i][name] }
	sumNodes := func(name string) float64 {
		sum := 0.0
		for i := range after.nodes {
			sum += node(i, name)
		}
		return sum
	}
	for i := range after.nodes {
		page := fmt.Sprintf("node %d /metrics", i)
		for _, ev := range []struct {
			name  string
			value int64
		}{
			{"ftdse_evaluator_scheduling_passes_total", ps.eval.SchedulingPasses},
			{"ftdse_evaluator_cache_hits_total", ps.eval.CacheHits},
			{"ftdse_evaluator_cache_misses_total", ps.eval.CacheMisses},
			{"ftdse_evaluator_scratch_allocs_total", ps.eval.ScratchAllocs},
			{"ftdse_evaluator_scratch_reuses_total", ps.eval.ScratchReuses},
		} {
			want(page, node(i, ev.name), float64(ev.value), ev.name+" (ReadEvaluatorMetrics)")
		}
	}
	if !clustered {
		page := "service /metrics"
		want(page, node(0, "ftdse_cache_hits_total"), float64(c.hits), "ftdse_cache_hits_total")
		want(page, node(0, "ftdse_jobs_coalesced_total"), float64(c.coalesced), "ftdse_jobs_coalesced_total")
		want(page, node(0, "ftdse_cache_misses_total"), float64(c.solved), "ftdse_cache_misses_total")
		want(page, node(0, "ftdse_jobs_rejected_total"), float64(c.rejected), "ftdse_jobs_rejected_total")
		return
	}
	page := "coordinator /metrics"
	coord := func(name string) float64 { return after.front[name] - before.front[name] }
	want(page, coord("ftcluster_node_cache_hits_total"), float64(c.hitJobs), "ftcluster_node_cache_hits_total")
	want(page, coord("ftcluster_jobs_coalesced_total"), float64(c.coalesced), "ftcluster_jobs_coalesced_total")
	want(page, coord("ftcluster_jobs_submitted_total"), float64(c.jobs), "ftcluster_jobs_submitted_total")
	want(page, coord("ftcluster_jobs_completed_total"), float64(c.jobs), "ftcluster_jobs_completed_total")
	want(page, coord("ftcluster_jobs_rejected_total"), float64(c.rejected), "ftcluster_jobs_rejected_total")
	want("nodes' /metrics", sumNodes("ftdse_cache_hits_total"), coord("ftcluster_node_cache_hits_total"),
		"ftdse_cache_hits_total against ftcluster_node_cache_hits_total")
	want("nodes' /metrics", sumNodes("ftdse_cache_hits_total")+sumNodes("ftdse_jobs_submitted_total")+
		sumNodes("ftdse_jobs_coalesced_total"), coord("ftcluster_dispatches_total"),
		"node submissions against ftcluster_dispatches_total")
}
