package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// CaseResult is the measured outcome of one corpus case: search
// behaviour (iterations, final cost, schedulability) plus performance
// (wall time, allocations). Costs are deterministic for a fixed corpus
// — corpus solvers run untimed with one worker — so any cost change
// between two reports of the same corpus is a genuine search-quality
// change, not noise.
type CaseResult struct {
	Name        string  `json:"name"`
	Size        string  `json:"size"`
	Shape       string  `json:"shape"`
	Engine      string  `json:"engine"`
	Procs       int     `json:"procs"`
	Nodes       int     `json:"nodes"`
	K           int     `json:"k"`
	Iterations  int     `json:"iterations"`
	WallMS      float64 `json:"wall_ms"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	MakespanUS  int64   `json:"makespan_us"`
	TardinessUS int64   `json:"tardiness_us"`
	Schedulable bool    `json:"schedulable"`

	// Evaluator hot-path deltas, bracketed around this case's solve: how
	// many scheduling passes the search paid for, how often the move memo
	// cache answered instead, and how the evaluation scratch arenas were
	// recycled. Deterministic for a fixed corpus (single-worker solves),
	// so a pass-count increase between reports is a genuine search-cost
	// change. Zero-valued in reports written before these fields existed.
	SchedulingPasses int64   `json:"scheduling_passes"`
	EvalCacheHits    int64   `json:"eval_cache_hits"`
	EvalCacheMisses  int64   `json:"eval_cache_misses"`
	EvalCacheHitRate float64 `json:"eval_cache_hit_rate"`
	ScratchAllocs    int64   `json:"scratch_allocs"`
	ScratchReuses    int64   `json:"scratch_reuses"`
}

// Summary aggregates a report corpus-wide.
type Summary struct {
	Cases        int     `json:"cases"`
	TotalWallMS  float64 `json:"total_wall_ms"`
	MedianWallMS float64 `json:"median_wall_ms"`
	P95WallMS    float64 `json:"p95_wall_ms"`
	TotalAllocs  uint64  `json:"total_allocs"`
}

// Report is the machine-readable result of one corpus run — the
// BENCH_<rev>.json files. TestCorpusCountsMatchBaseline gates the
// deterministic columns of the checked-in one; wall time and
// allocations are recorded, not gated (perfbench measures time).
type Report struct {
	Rev       string       `json:"rev"`
	Seed      int64        `json:"seed"`
	Short     bool         `json:"short"`
	GoVersion string       `json:"go_version"`
	Cases     []CaseResult `json:"cases"`
	Summary   Summary      `json:"summary"`
}

// ComputeSummary (re)derives the corpus-wide aggregates from the cases.
func (r *Report) ComputeSummary() {
	s := Summary{Cases: len(r.Cases)}
	walls := make([]float64, 0, len(r.Cases))
	for _, c := range r.Cases {
		s.TotalWallMS += c.WallMS
		s.TotalAllocs += c.AllocsPerOp
		walls = append(walls, c.WallMS)
	}
	sort.Float64s(walls)
	s.MedianWallMS = quantileNearestRank(walls, 0.50)
	s.P95WallMS = quantileNearestRank(walls, 0.95)
	r.Summary = s
}

// quantileNearestRank is the ceiling nearest-rank quantile of a sorted
// sample (0 when empty) — the same estimator the service metrics use,
// honest on small samples.
func quantileNearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteReport serializes a report as indented JSON. The rendering is
// deterministic (fixed field order, trailing newline), so equal reports
// are byte-identical — which is what lets tests diff them.
func WriteReport(w io.Writer, r *Report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadReport parses a report written by WriteReport.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	return &r, nil
}
