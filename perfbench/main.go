// Command perfbench is the repository's benchmark: four seeded
// workloads that drive the optimizer through its public API (ftdse,
// service, client, cluster), check every answer, and print end-to-end
// metrics (untraced run) or per-layer metrics (traced run). README.md
// in this directory explains the workloads and every metric.
//
//	perfbench -workload dse-tabu -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":180,"failed":0,"metrics":{"latency_p50_ms":{"value":81.2,"unit":"ms"},...}}
//
// The exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is what a workload needs to know about one run.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// size selects the input sizes; the command line always runs
	// fullSize, tests run tinySize.
	size sizeClass
	// tailP is the percentile latency_tail_ms reports, fixed by the
	// workload's nominal operation count (see workload.opsPerSecond).
	tailP float64
}

type sizeClass int

const (
	fullSize sizeClass = iota
	tinySize
)

// workload is one seeded input set plus the way it is driven;
// BENCHMARK.json and README.md say why each exists.
type workload struct {
	name string
	// opsPerSecond is the nominal completion rate on a two-core machine,
	// about half to two thirds of what one reaches in a fast phase. It
	// fixes the workload's nominal operation count, and with it the
	// percentile latency_tail_ms reports (see tailPercentile), so the
	// percentile does not change between runs or revisions, and a run
	// leaves well over ten samples beyond it.
	opsPerSecond float64
	run          func(cfg runConfig) (*report, error)
}

func workloads() []workload {
	return []workload{
		{"dse-tabu", 6, runDSETabu},
		{"dse-anneal", 12, runDSEAnneal},
		{"serve", 300, runServe},
		{"serve-cluster", 25, runServeCluster},
	}
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// failures lists every output check that failed; a run with any
	// failure is not correct.
	failures []string
	// notes are human-readable lines printed before the metrics.
	notes []string
	// spans are the traced run's spans, written out when the run ends.
	spans []span
}

func (r *report) fail(format string, args ...any) {
	if len(r.failures) < 50 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, cand := range workloads() {
		if cand.name == *name {
			w = &cand
			break
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		tailP:   tailPercentile(int(w.opsPerSecond * *seconds)),
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.traced {
		if err := writeSpans(*out, w.name, cfg.seed, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := printReport(stdout, w.name, rep, cfg.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; perLayer the traced run's.
// Both lists must match BENCHMARK.json (TestMetricNamesMatchManifest).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"failed_share", "ratio"},
	{"makespan_gmean_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"solve.self_ms", "ms"},
	{"solve.allocs", "count"},
	{"solve.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"engine.greedy_ms", "ms"},
	{"engine.tabu_ms", "ms"},
	{"engine.sa_ms", "ms"},
	{"engine.iterations", "count"},
	{"eval.passes", "count"},
	{"eval.memo_hit_ratio", "ratio"},
	{"eval.pass_us", "us"},
	{"eval.parallelism", "ratio"},
	{"eval.scratch_reuse_ratio", "ratio"},
	{"sched.build_us", "us"},
	{"sched.build_allocs", "count"},
	{"codec.read_problem_us", "us"},
	{"codec.write_problem_us", "us"},
	{"client.encode_us", "us"},
	{"service.fingerprint_us", "us"},
	{"service.hit_ms", "ms"},
	{"service.hit_tail_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"service.miss_tail_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.queue_wait_tail_ms", "ms"},
	{"service.solve_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.rejected", "count"},
	{"cluster.hit_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.overhead_tail_ms", "ms"},
	{"cluster.dispatches_per_job", "ratio"},
	{"cluster.node_hit_ratio", "ratio"},
	{"cluster.coalesced_ratio", "ratio"},
	{"cluster.steals", "count"},
	{"cluster.redispatches", "count"},
	{"trace.throughput_ops_s", "ops/s"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints the notes, every metric of the run's kind by name
// with its unit, any failed check, and the JSON result line. A metric
// of a layer the workload does not exercise prints as 0.
func printReport(w io.Writer, workload string, rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(w, "perfbench %s\n", workload)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for name := range rep.metrics {
		if _, ok := line.Metrics[name]; !ok && !isMetric(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("workload %s computed metrics missing from the catalog: %s", workload, strings.Join(extra, ", "))
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func isMetric(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return true
		}
	}
	return false
}
