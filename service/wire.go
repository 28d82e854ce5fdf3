package service

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
)

// This file defines the wire format of the ftdsed HTTP API. The types
// are shared verbatim by the server and the typed client package, so
// the two cannot drift apart.

// SolveOptions is the per-request solver configuration. The zero value
// selects the solver defaults (MXR, size-dependent budget, slack
// sharing on). All durations are given in milliseconds, matching the
// problem document's convention.
//
//ftdse:wire
type SolveOptions struct {
	// Strategy names the optimization strategy ("mxr", "mx", "mr",
	// "sfx", "nft", case-insensitive); empty selects "mxr".
	Strategy string `json:"strategy,omitempty"`
	// Engine names the search engine (one of ftdse.Engines():
	// "default", "greedy", "tabu", "sa", "portfolio",
	// case-insensitive); empty selects "default", the paper's
	// greedy→tabu pipeline.
	Engine string `json:"engine,omitempty"`
	// Seed seeds stochastic engines ("sa", and the "sa" racer of
	// "portfolio"); 0 selects the fixed seed 1, so results are
	// deterministic — and cacheable — either way.
	Seed int64 `json:"seed,omitempty"`
	// MaxIterations bounds the tabu search; <= 0 selects a
	// problem-size-dependent default.
	MaxIterations int `json:"max_iterations,omitempty"`
	// TimeLimitMs bounds the solve; <= 0 means no limit. It doubles as
	// the client deadline: the job's context expires when it elapses and
	// the job completes with its best-so-far design.
	TimeLimitMs float64 `json:"time_limit_ms,omitempty"`
	// Workers bounds the concurrent move evaluations inside the solve;
	// 0 uses all CPUs. Untimed results are identical for every value.
	Workers int `json:"workers,omitempty"`
	// BusOptimization enables the final TDMA slot-order hill climbing.
	BusOptimization bool `json:"bus_optimization,omitempty"`
	// Checkpointing enables checkpoint-count moves (the reproduction's
	// extension), at most 4 checkpoints per replica.
	Checkpointing bool `json:"checkpointing,omitempty"`
	// StopWhenSchedulable stops at the first design meeting all
	// deadlines instead of minimizing the schedule length.
	StopWhenSchedulable bool `json:"stop_when_schedulable,omitempty"`
	// SlackSharing toggles the shared re-execution slack; nil means the
	// default (on).
	SlackSharing *bool `json:"slack_sharing,omitempty"`
	// FlightRecorder enables the search flight recorder: the JobResult
	// then carries the run's trace as a JSONL document (render with
	// fttrace). Part of the fingerprint — a traced job never coalesces
	// with (or answers from the cache of) an untraced one, because their
	// result documents differ.
	FlightRecorder bool `json:"flight_recorder,omitempty"`
}

// normalized returns the options with defaults applied and negative
// knobs clamped, validating the strategy name. Normalization runs
// before fingerprinting, so equivalent spellings of a request ("",
// "mxr" and "MXR"; -1 and 0 iterations) share one cache entry.
func (o SolveOptions) normalized() (SolveOptions, error) {
	if o.Strategy == "" {
		o.Strategy = "mxr"
	}
	s, err := ftdse.ParseStrategy(o.Strategy)
	if err != nil {
		return o, err
	}
	o.Strategy = strings.ToLower(s.String())
	if o.Engine == "" {
		o.Engine = "default"
	}
	// A listed name needs no check: ParseEngine would build the engine
	// only to discard it, on every submission.
	engine := strings.ToLower(o.Engine)
	if !slices.Contains(ftdse.Engines(), engine) {
		if _, err := ftdse.ParseEngine(o.Engine); err != nil {
			return o, err
		}
	}
	o.Engine = engine
	// The seed only matters to stochastic engines, and for those 0 is
	// documented to select the fixed seed 1 — collapse both facts so
	// provably identical requests share one cache entry.
	if stochasticEngine(o.Engine) {
		if o.Seed == 0 {
			o.Seed = 1
		}
	} else {
		o.Seed = 0
	}
	if o.MaxIterations < 0 {
		o.MaxIterations = 0
	}
	if o.TimeLimitMs < 0 {
		o.TimeLimitMs = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.SlackSharing == nil {
		on := true
		o.SlackSharing = &on
	}
	return o, nil
}

// timeLimit converts TimeLimitMs to a duration.
func (o SolveOptions) timeLimit() time.Duration {
	return time.Duration(o.TimeLimitMs * float64(time.Millisecond))
}

// solverOptions lowers normalized options to ftdse functional options.
func (o SolveOptions) solverOptions() []ftdse.Option {
	strat, _ := ftdse.ParseStrategy(o.Strategy)
	eng, _ := ftdse.ParseEngine(o.Engine)
	out := []ftdse.Option{
		ftdse.WithStrategy(strat),
		ftdse.WithEngine(eng),
		ftdse.WithSeed(o.Seed),
		ftdse.WithMaxIterations(o.MaxIterations),
		ftdse.WithTimeLimit(o.timeLimit()),
		ftdse.WithWorkers(o.Workers),
		ftdse.WithBusOptimization(o.BusOptimization),
		ftdse.WithCheckpointing(o.Checkpointing),
		ftdse.WithStopWhenSchedulable(o.StopWhenSchedulable),
		ftdse.WithSlackSharing(*o.SlackSharing),
	}
	if o.FlightRecorder {
		out = append(out, ftdse.WithFlightRecorder(ftdse.DefaultFlightRecorderEvents))
	}
	return out
}

// stochasticEngine reports whether the (normalized) engine name draws
// from the seed; the fact lives on the facade (ftdse.StochasticEngines)
// so it cannot drift from ParseEngine.
func stochasticEngine(name string) bool {
	return slices.Contains(ftdse.StochasticEngines(), name)
}

// appendCanonical appends the fixed-order rendering of normalized
// options that is mixed into the problem fingerprint:
//
//	strategy=%s;engine=%s;seed=%d;iters=%d;limit_ns=%d;workers=%d;bus=%t;ckpt=%t;maxckpt=0;stopsched=%t;slack=%t;tenure=0;flight=%t
//
// maxckpt=0 and tenure=0 name fixed defaults, kept so existing keys
// stay valid. Workers is normalized to 0 for untimed requests: without
// a time limit the result is identical for every worker count (the
// solver's determinism contract), so those requests share a cache
// entry. The one exception is a portfolio race with
// StopWhenSchedulable: the first schedulable incumbent cancels the
// race mid-flight, so the outcome is timing-dependent — like a timed
// run — and the worker count stays in the key rather than coalescing
// requests whose answers may legitimately differ.
func (o SolveOptions) appendCanonical(b []byte) []byte {
	w := o.Workers
	if o.TimeLimitMs == 0 && !(o.StopWhenSchedulable && o.Engine == "portfolio") {
		w = 0
	}
	b = append(b, "strategy="...)
	b = append(b, o.Strategy...)
	b = append(b, ";engine="...)
	b = append(b, o.Engine...)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, o.Seed, 10)
	b = append(b, ";iters="...)
	b = strconv.AppendInt(b, int64(o.MaxIterations), 10)
	// The limit is keyed at full nanosecond resolution: a sub-microsecond
	// TimeLimitMs is still a real (immediately truncating) budget and
	// must never collide with the untimed request's key.
	b = append(b, ";limit_ns="...)
	b = strconv.AppendInt(b, o.timeLimit().Nanoseconds(), 10)
	b = append(b, ";workers="...)
	b = strconv.AppendInt(b, int64(w), 10)
	b = append(b, ";bus="...)
	b = strconv.AppendBool(b, o.BusOptimization)
	b = append(b, ";ckpt="...)
	b = strconv.AppendBool(b, o.Checkpointing)
	b = append(b, ";maxckpt=0;stopsched="...)
	b = strconv.AppendBool(b, o.StopWhenSchedulable)
	b = append(b, ";slack="...)
	b = strconv.AppendBool(b, *o.SlackSharing)
	b = append(b, ";tenure=0;flight="...)
	return strconv.AppendBool(b, o.FlightRecorder)
}

// SubmitRequest is the body of POST /solve: the problem document (the
// ftdse.WriteProblem JSON format) plus the solver configuration.
//
//ftdse:wire
type SubmitRequest struct {
	Problem json.RawMessage `json:"problem"`
	Options SolveOptions    `json:"options"`
	// TraceID propagates a caller-minted request identity end to end:
	// it appears in the service's logs, the job's SSE events and status,
	// and (through the coordinator) the cluster journal. Empty means the
	// server mints one; the Ftdse-Trace-Id header is an equivalent
	// carrier for single submissions. When identical submissions
	// coalesce, the first one's trace ID identifies the shared solve.
	TraceID string `json:"trace_id,omitempty"`
	// WarmStart optionally carries a checkpoint document (the
	// ftdse.WriteCheckpoint JSON format) whose design seeds the solve:
	// the result never costs more than a warm start that fits the
	// problem, and one that does not fit is skipped silently. The warm
	// start is deliberately NOT part of the job fingerprint. That keeps
	// coalescing and caching working across failover — a resubmission
	// carrying a checkpoint coalesces with (and answers) plain
	// duplicates of the same problem, and an identical later submission
	// is a cache hit — at the price that a warm-started result may
	// reflect a different (never worse) search trajectory than a cold
	// solve of the same fingerprint. DESIGN.md §13 spells out the trade.
	WarmStart json.RawMessage `json:"warm_start,omitempty"`
}

// BatchRequest is the body of POST /solve/batch.
//
//ftdse:wire
type BatchRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchResponse answers a batch submission; Jobs aligns 1:1 with the
// request.
//
//ftdse:wire
type BatchResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// Job states reported in JobStatus.State. Done, failed and canceled are
// terminal.
//
//ftdse:wire job-states
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// TerminalState reports whether a job state is terminal.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the public view of a job, returned by submissions,
// GET /jobs/{id}, DELETE /jobs/{id} and the closing SSE event.
//
//ftdse:wire
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// TraceID is the job's request identity (see SubmitRequest.TraceID).
	TraceID string `json:"trace_id,omitempty"`
	// Cached marks a submission answered from the result cache without
	// re-solving; through a coordinator, one the owning node answered
	// from its cache.
	Cached bool `json:"cached,omitempty"`
	// Improvements counts the incumbent solutions found so far (the
	// events delivered on the job's SSE stream).
	Improvements int        `json:"improvements"`
	SubmittedAt  time.Time  `json:"submitted_at"`
	StartedAt    *time.Time `json:"started_at,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
	Error        string     `json:"error,omitempty"`
	// Result carries the JobResult document once the job is terminal.
	// For canceled jobs it holds the best-so-far design when one exists.
	Result json.RawMessage `json:"result,omitempty"`
}

// JobResult is the outcome document of a solved job. Cache hits return
// the stored document byte-for-byte.
//
//ftdse:wire
type JobResult struct {
	Strategy string `json:"strategy"`
	// Engine names the search engine that produced the design.
	Engine      string  `json:"engine,omitempty"`
	Schedulable bool    `json:"schedulable"`
	MakespanMs  float64 `json:"makespan_ms"`
	TardinessMs float64 `json:"tardiness_ms,omitempty"`
	Iterations  int     `json:"iterations"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	// Stopped records why the solve ended: "completed", "time limit" or
	// "canceled". Use StopCause for the typed view.
	Stopped string `json:"stopped"`
	// TraceID names the request that executed this solve. A cached
	// result keeps the original solve's trace ID (the document is stored
	// byte-for-byte); the per-submission identity is JobStatus.TraceID.
	TraceID string `json:"trace_id,omitempty"`
	// Spans are the solve's server-side timings on the node that ran it
	// (queue_wait, solve), with StartMs relative to the submission the
	// span set was recorded under, and Node the member name a
	// coordinator dispatched it under. A coordinator passes the node's
	// document through unchanged and adds no spans of its own.
	Spans []obs.Span `json:"spans,omitempty"`
	// TraceJSONL carries the flight-recorder trace document (the
	// ftdse.WriteTrace JSONL form) when the job ran with
	// SolveOptions.FlightRecorder; render it with fttrace.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
	// Schedule is the deployment artifact (the ftdse.WriteSchedule JSON
	// format, compacted).
	Schedule json.RawMessage `json:"schedule"`
}

// StopCause converts the Stopped string to the typed ftdse.StopCause,
// so a client can tell a converged solve (StopCompleted) from a
// deadline-truncated one (StopTimeLimit) without string comparisons.
func (r JobResult) StopCause() (ftdse.StopCause, error) {
	return ftdse.ParseStopCause(r.Stopped)
}

// ProgressEvent is one incumbent solution streamed on
// GET /jobs/{id}/events as an SSE "improvement" event.
//
//ftdse:wire
type ProgressEvent struct {
	Phase       string  `json:"phase"`
	Iteration   int     `json:"iteration"`
	MakespanMs  float64 `json:"makespan_ms"`
	TardinessMs float64 `json:"tardiness_ms"`
	Schedulable bool    `json:"schedulable"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	// TraceID identifies the job the incumbent belongs to, so a client
	// multiplexing several streams can attribute events.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
//
//ftdse:wire
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterS mirrors the Retry-After header on 429 answers.
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// Fingerprint and QueueDepth detail queue-full rejections: the
	// fingerprint of the submission that needed the unavailable slot and
	// the backlog at rejection time, mirrored into the server's log line.
	Fingerprint string `json:"fingerprint,omitempty"`
	QueueDepth  int    `json:"queue_depth,omitempty"`
}

// ReadyStatus is the body of GET /readyz: whether the node is able to
// accept new work right now (the queue has room and the service is not
// draining). The coordinator's health checker polls it.
//
//ftdse:wire
type ReadyStatus struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// QueueDepth and QueueCapacity expose the backlog that decides
	// readiness; the coordinator also uses them to pick steal targets.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// SolvesInFlight counts running solves (load signal for stealing).
	SolvesInFlight int `json:"solves_in_flight"`
}
