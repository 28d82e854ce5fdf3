// Package service is the embeddable ftdsed solve service: an HTTP API
// that runs the ftdse optimizer behind a bounded job queue and worker
// pool, streams incumbent solutions to clients while the search runs,
// and answers repeated submissions of the same problem from an LRU
// result cache keyed by a canonical problem fingerprint.
//
// The API (all bodies JSON; see wire.go for the exact types):
//
//	POST   /solve            submit one problem; 202 queued, 200 on a
//	                         cache hit, 429 + Retry-After when the queue
//	                         is full. A submission identical to an
//	                         in-flight one coalesces onto that job (same
//	                         id): solves are deterministic per
//	                         fingerprint, so one solve answers them all.
//	                         ?wait=1 blocks until the job is terminal;
//	                         if the client disconnects first the job is
//	                         canceled unless other submissions share it.
//	POST   /solve/batch      submit several problems atomically: either
//	                         every non-cached job is enqueued or the
//	                         whole batch is rejected with 429.
//	GET    /jobs/{id}        job status (result embedded once terminal).
//	DELETE /jobs/{id}        cancel (for every client attached to the
//	                         job); a running solve stops within one
//	                         scheduling pass and the answer carries the
//	                         terminal status with its best-so-far design.
//	GET    /jobs/{id}/events SSE stream: one "improvement" event per
//	                         incumbent solution, then a closing "done"
//	                         event carrying the final JobStatus.
//	GET    /metrics          Prometheus text exposition (queue depth,
//	                         cache hits and misses, solve latency and
//	                         queue wait histograms, evaluator counters…).
//	GET    /healthz          liveness ("ok", or 503 while draining).
//	GET    /readyz           readiness: 200 when the queue has room and
//	                         the service is not draining, 503 otherwise;
//	                         the JSON body carries the backlog and the
//	                         cluster node name (see cluster.go).
//	POST   /cluster/register node mode: a coordinator registers itself;
//	                         the service then pushes periodic search
//	                         checkpoints of running solves to it.
//
// A submission may carry a warm start (a checkpoint document from a
// previous solve); see SubmitRequest.WarmStart.
//
// Everything is stdlib-only. Use New + Handler to embed the service in
// any mux; cmd/ftdsed wraps it in a daemon. The cluster package builds
// the sharded coordinator on top of this API.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
)

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// QueueSize bounds the jobs waiting for a worker; submissions beyond
	// it are rejected with 429 (default 64).
	QueueSize int
	// PoolWorkers is the number of concurrent solves (default
	// runtime.GOMAXPROCS(0)). Each solve may itself use
	// SolveOptions.Workers goroutines for move evaluation.
	PoolWorkers int
	// CacheSize bounds the LRU result cache entries and, separately,
	// the problem documents the ProblemMemo remembers (default 128;
	// negative disables both).
	CacheSize int
	// MaxTimeLimit, when positive, caps the per-request time limit so a
	// client cannot occupy a worker forever (0 = uncapped).
	MaxTimeLimit time.Duration
	// Logger receives the service's structured log records (job
	// lifecycle, backpressure rejections, checkpoint push failures),
	// each tagged with the job's trace ID. nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	return c
}

// maxJobs bounds the terminal jobs retained for status queries; the
// oldest are forgotten first.
const maxJobs = 4096

// Service is a concurrent solve service. Create with New, mount
// Handler, and Close to drain.
type Service struct {
	cfg     Config
	solver  *ftdse.Solver        // shared base; per-job variants derived With()
	cache   *lru[string, []byte] // fingerprint → encoded JobResult
	memo    *ProblemMemo
	met     *metrics
	log     *slog.Logger
	cluster clusterState // node-mode identity (set by registration)

	mu       sync.Mutex // guards pending, jobs, inflight, retired, draining
	workCond *sync.Cond // signaled on new pending work and on Close
	pending  []*job     // the job queue, oldest first (bounded by cfg.QueueSize)
	jobs     map[string]*job
	inflight map[string]*job // fingerprint → non-terminal solve (coalescing)
	retired  []string        // terminal job ids, oldest first
	draining bool            // set by Close, never cleared

	nextID uint64
	wg     sync.WaitGroup
}

// New starts a service: the worker pool begins consuming the queue
// immediately.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		solver:   ftdse.NewSolver(),
		cache:    newLRU[string, []byte](cfg.CacheSize),
		memo:     NewProblemMemo(cfg.CacheSize),
		log:      cfg.Logger,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	if s.log == nil {
		s.log = obs.Discard()
	}
	s.workCond = sync.NewCond(&s.mu)
	s.met = newMetrics(s.queueDepth, cfg.QueueSize, s.cache.len)
	s.wg.Add(cfg.PoolWorkers)
	for i := 0; i < cfg.PoolWorkers; i++ {
		go s.worker()
	}
	return s
}

func (s *Service) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close drains the service: new submissions are rejected with 503,
// running solves are canceled — each completes within one scheduling
// pass and keeps its best-so-far design as its result — queued jobs
// that never started are marked canceled, and Close returns when every
// worker has exited or ctx fires.
//
//ftdse:shutdown
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	var never []*job
	if !s.draining {
		s.draining = true
		never, s.pending = s.pending, nil
	}
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j) //ftlint:allow determinism drain cancels every job; cancellation order is immaterial
	}
	s.mu.Unlock()
	s.workCond.Broadcast()

	// Queued jobs that never started have no best-so-far to return.
	for _, j := range never {
		s.conclude(j, StateCanceled, nil, "service shutting down before the job started")
	}
	for _, j := range jobs {
		j.cancel()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker consumes the queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.draining {
			s.workCond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one queued job end to end.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Popped just as the drain began: never started, no best-so-far.
		s.conclude(j, StateCanceled, nil, "service shutting down before the job started")
		return
	}
	if !j.run() {
		// Canceled between the pop and here; cancelJob concluded it.
		return
	}

	queueWait := time.Since(j.submitted)
	s.met.observeQueueWait(queueWait)
	s.met.solvesInFlight.Add(1)
	s.met.solvesTotal.Inc()
	s.met.engines.With(j.opts.Engine).Inc()
	s.log.Info("solve started", obs.TraceIDKey, j.traceID, "job", j.id,
		"fingerprint", j.fingerprint, "engine", j.opts.Engine,
		"queue_wait_ms", durMs(queueWait))
	opts := append(j.opts.solverOptions(), ftdse.WithProgress(j.publish))
	if len(j.warm) > 0 {
		opts = append(opts, ftdse.WithWarmStart(j.warm))
		s.met.warmStarts.Inc()
	}
	stopCk := s.startCheckpoints(j)
	start := time.Now()
	solver := s.solver.With(opts...)
	res, err := solver.Solve(j.ctx, j.problem)
	stopCk()
	solveDur := time.Since(start)
	s.met.solvesInFlight.Add(-1)
	s.met.observeSolve(solveDur)

	if err != nil {
		s.log.Warn("solve failed", obs.TraceIDKey, j.traceID, "job", j.id, "error", err.Error())
		s.conclude(j, StateFailed, nil, err.Error())
		return
	}
	node := s.clusterNode()
	spans := []obs.Span{
		{Name: "queue_wait", StartMs: 0, DurationMs: durMs(queueWait), Node: node},
		{Name: "solve", StartMs: durMs(queueWait), DurationMs: durMs(solveDur), Node: node},
	}
	body, encErr := encodeResult(res, j.traceID, spans)
	if encErr != nil {
		s.conclude(j, StateFailed, nil, encErr.Error())
		return
	}
	s.log.Info("solve finished", obs.TraceIDKey, j.traceID, "job", j.id,
		"stopped", res.Stopped.String(), "schedulable", res.Schedulable(),
		"solve_ms", durMs(solveDur))
	if res.Stopped == ftdse.StopCanceled {
		// Anytime contract: a canceled job still carries its
		// best-so-far design, but a truncated search must not poison
		// the cache.
		s.conclude(j, StateCanceled, body, "")
	} else {
		// Completed and time-limited runs are cached: the fingerprint
		// includes the budget, so a budget-bound result is the answer
		// to exactly that budgeted question. The put precedes conclude
		// so an identical submission always finds either the in-flight
		// job or the cached result, never a gap between them.
		s.cache.put(j.fingerprint, body)
		s.conclude(j, StateDone, body, "")
	}
}

// conclude moves a job to a terminal state, removes it from the
// in-flight index (so identical submissions stop coalescing onto it),
// and retires it. Safe to call on an already-terminal job.
func (s *Service) conclude(j *job, state string, result []byte, errMsg string) {
	first := j.finish(state, result, errMsg)
	s.mu.Lock()
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	if first {
		s.retireLocked(j)
	}
	s.mu.Unlock()
}

// durMs renders a duration in float milliseconds (the wire convention).
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// encodeResult renders a solver result as the wire JobResult document,
// carrying the executing request's trace identity and server-side spans
// (and the flight-recorder trace when the job asked for one).
func encodeResult(res *ftdse.Result, traceID string, spans []obs.Span) ([]byte, error) {
	var sched bytes.Buffer
	if err := ftdse.WriteSchedule(&sched, res.Schedule); err != nil {
		return nil, fmt.Errorf("service: encoding schedule: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, sched.Bytes()); err != nil {
		return nil, fmt.Errorf("service: compacting schedule: %w", err)
	}
	jr := JobResult{
		Strategy:    res.Strategy.String(),
		Engine:      res.Engine,
		Schedulable: res.Schedulable(),
		MakespanMs:  res.Cost.Makespan.Milliseconds(),
		TardinessMs: res.Cost.Tardiness.Milliseconds(),
		Iterations:  res.Iterations,
		ElapsedMs:   float64(res.Elapsed) / float64(time.Millisecond),
		Stopped:     res.Stopped.String(),
		TraceID:     traceID,
		Spans:       spans,
		Schedule:    json.RawMessage(compact.Bytes()),
	}
	if res.Trace != nil {
		var tr bytes.Buffer
		if err := ftdse.WriteTrace(&tr, res.Trace); err != nil {
			return nil, fmt.Errorf("service: encoding trace: %w", err)
		}
		jr.TraceJSONL = tr.String()
	}
	return json.Marshal(jr)
}

// Submission errors surfaced to the HTTP layer.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("service draining")
)

// submitErr wraps a submission failure with its HTTP classification;
// queue-full rejections additionally carry the fingerprint that needed
// the unavailable slot and the backlog at rejection time.
type submitErr struct {
	code        int
	retryAfter  time.Duration
	fingerprint string
	queueDepth  int
	err         error
}

func (e *submitErr) Error() string { return e.err.Error() }

// prepare validates one request and computes its fingerprint, through
// the ProblemMemo so a repeated document is neither decoded nor
// re-encoded. The request's trace ID is validated (or minted when
// absent), so every admitted submission is traceable.
func (s *Service) prepare(req SubmitRequest) (prepared, error) {
	opts, err := req.Options.normalized()
	if err != nil {
		return prepared{}, err
	}
	traceID := req.TraceID
	switch {
	case traceID == "":
		traceID = obs.NewTraceID()
	case !obs.ValidTraceID(traceID):
		return prepared{}, fmt.Errorf("invalid trace id %q", traceID)
	}
	if s.cfg.MaxTimeLimit > 0 && (opts.timeLimit() <= 0 || opts.timeLimit() > s.cfg.MaxTimeLimit) {
		opts.TimeLimitMs = float64(s.cfg.MaxTimeLimit) / float64(time.Millisecond)
	}
	if len(req.Problem) == 0 {
		return prepared{}, errors.New("missing problem document")
	}
	// The memo keys on the options after the MaxTimeLimit clamp, which
	// the fingerprint includes.
	prob, fp, err := s.memo.Resolve(req.Problem, opts)
	if err != nil {
		return prepared{}, err
	}
	p := prepared{opts: opts, problem: prob, fp: fp, traceID: traceID}
	if len(req.WarmStart) > 0 {
		// A malformed checkpoint is a client bug (reject); one that
		// parses but does not fit this problem is a stale best-effort
		// hint (ignore) — the warm-start contract of WithWarmStart.
		ck, err := ftdse.ReadCheckpoint(bytes.NewReader(req.WarmStart))
		if err != nil {
			return prepared{}, fmt.Errorf("warm start: %w", err)
		}
		if d, err := ftdse.CheckpointDesign(prob, ck); err == nil {
			p.warm = d
		}
	}
	return p, nil
}

// submit enqueues one prepared request (or answers it from the cache).
func (s *Service) submit(req SubmitRequest) (*job, error) {
	p, err := s.prepare(req)
	if err != nil {
		return nil, &submitErr{code: http.StatusBadRequest, err: err}
	}
	jobs, err := s.enqueue([]prepared{p})
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// prepared is one validated submission ready to enqueue.
type prepared struct {
	opts    SolveOptions
	problem ftdse.Problem
	fp      string
	traceID string       // request identity (minted when the client sent none)
	warm    ftdse.Design // optional warm start (outside the fingerprint)
}

// enqueue atomically admits a set of prepared submissions: cache hits
// are answered in place, submissions whose fingerprint is already in
// flight coalesce onto the existing job (same id — solves are
// deterministic per fingerprint, so one solve answers them all), and
// either every genuinely new job fits the queue or the whole set is
// rejected with queue-full (backpressure is all-or-nothing so a batch
// cannot be half-admitted).
func (s *Service) enqueue(reqs []prepared) ([]*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &submitErr{code: http.StatusServiceUnavailable, err: errDraining}
	}
	// Pass 1: cache and in-flight lookups and the queue-capacity check
	// for the rest — no metrics, IDs, or registrations yet, so a
	// rejected batch leaves no trace beyond its rejection count.
	bodies := make([][]byte, len(reqs))
	shared := make([]*job, len(reqs))
	fresh := make(map[string]struct{})
	need := 0
	firstFresh := ""
	for i, r := range reqs {
		if body, ok := s.cache.get(r.fp); ok {
			bodies[i] = body
			continue
		}
		// Coalesce only onto jobs not already canceled: a submission
		// arriving after a cancel deserves a fresh solve, not the
		// winding-down job's truncated result.
		if j := s.inflight[r.fp]; j != nil && j.ctx.Err() == nil {
			shared[i] = j
			continue
		}
		if _, dup := fresh[r.fp]; dup {
			continue // coalesces onto its batch-mate in pass 2
		}
		fresh[r.fp] = struct{}{}
		if firstFresh == "" {
			firstFresh = r.fp
		}
		need++
	}
	if need > s.cfg.QueueSize-len(s.pending) {
		// Only the jobs that needed queue space count as rejected: the
		// batch's cache hits and coalesced submissions were answerable.
		s.met.jobsRejected.Add(int64(need))
		s.log.Warn("job queue full", "fingerprint", firstFresh,
			"queue_depth", len(s.pending), "rejected", need)
		return nil, &submitErr{
			code:        http.StatusTooManyRequests,
			retryAfter:  s.retryAfterLocked(),
			fingerprint: firstFresh,
			queueDepth:  len(s.pending),
			err:         errQueueFull,
		}
	}
	// Pass 2: count, register and enqueue — all under the same lock as
	// the capacity check, so admission is atomic.
	jobs := make([]*job, len(reqs))
	for i, r := range reqs {
		switch {
		case bodies[i] != nil:
			s.met.cacheHits.Inc()
			j := newCachedJob(s.newIDLocked(), r.fp, r.traceID, r.opts, bodies[i])
			jobs[i] = j
			s.jobs[j.id] = j
			s.retireLocked(j)
			continue
		case shared[i] != nil:
			s.met.jobsCoalesced.Inc()
			jobs[i] = shared[i]
		case s.inflight[r.fp] != nil: // batch-mate created below
			s.met.jobsCoalesced.Inc()
			jobs[i] = s.inflight[r.fp]
		default:
			s.met.cacheMisses.Inc()
			s.met.jobsSubmitted.Inc()
			j := newJob(s.newIDLocked(), r.fp, r.traceID, r.opts, r.problem)
			// When identical submissions coalesce, the first one's warm
			// start wins: later hints could only steer the same
			// deterministic search from a different (never worse for the
			// submitter) starting point, and a job must not change under
			// clients already attached to it.
			j.warm = r.warm
			jobs[i] = j
			s.jobs[j.id] = j
			s.inflight[r.fp] = j
			s.pending = append(s.pending, j)
			s.workCond.Signal()
		}
		jobs[i].attach()
	}
	return jobs, nil
}

// retireLocked is retire for callers already holding mu.
func (s *Service) retireLocked(j *job) {
	s.retired = append(s.retired, j.id)
	for len(s.jobs) > maxJobs && len(s.retired) > 0 {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

func (s *Service) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j%06d", s.nextID)
}

// retryAfterLocked estimates when queue space should free up: the
// median solve latency (from the latency histogram) times the jobs
// ahead per worker, clamped to [1s, 60s].
func (s *Service) retryAfterLocked() time.Duration {
	p50 := s.met.solveLatency.Quantile(0.50)
	est := time.Duration(p50 * float64(len(s.pending)) / float64(s.cfg.PoolWorkers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve/batch", s.handleBatch)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /cluster/register", s.handleRegister)
	return mux
}

// maxBody bounds request bodies (problem documents are small).
const maxBody = 16 << 20

// writeJSON emits a response exactly as json.NewEncoder(w).Encode(v)
// would, encoded by AppendJSON: a job status carries its stored result
// document as copied bytes, so a cache hit answers with the very bytes
// the solve stored, the same bytes the SSE "done" event carries.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodies.Get().(*[]byte)
	body, err := AppendJSON((*buf)[:0], v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		body = append(body, '\n')
		w.Write(body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodies.Put(buf)
	}
}

// bodies recycles response bodies: a ResponseWriter, like any
// io.Writer, does not retain what it is given.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps a rare large body, such as a big batch's, from
// staying in the pool.
const maxPooledBody = 64 << 10

func writeError(w http.ResponseWriter, err error) {
	var se *submitErr
	if errors.As(err, &se) {
		resp := ErrorResponse{Error: se.err.Error()}
		if se.code == http.StatusTooManyRequests {
			secs := int(se.retryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			resp.RetryAfterS = secs
			resp.Fingerprint = se.fingerprint
			resp.QueueDepth = se.queueDepth
		}
		writeJSON(w, se.code, resp)
		return
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	// The Ftdse-Trace-Id header is the out-of-band carrier of the same
	// identity; an explicit body field wins.
	if req.TraceID == "" {
		req.TraceID = r.Header.Get(obs.TraceHeader)
	}
	j, err := s.submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	// Echo the solve's trace identity so callers that let the server
	// mint it can pick it up without parsing the body.
	w.Header().Set(obs.TraceHeader, j.traceID)
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait && !j.terminal() {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Cancel-on-disconnect (or client deadline): drop this
			// submission's interest, and stop the solve only when no
			// other submission coalesced onto the job — other clients
			// still want its result. Nobody reads the response of a
			// disconnected request, so return without writing one.
			if j.release() {
				s.cancelJob(j)
			}
			return
		}
	}
	code := http.StatusAccepted
	if j.terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, j.status())
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, errors.New("empty batch"))
		return
	}
	preps := make([]prepared, len(req.Jobs))
	for i, jr := range req.Jobs {
		p, err := s.prepare(jr)
		if err != nil {
			writeError(w, fmt.Errorf("batch job %d: %w", i, err))
			return
		}
		preps[i] = p
	}
	jobs, err := s.enqueue(preps)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := BatchResponse{Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		resp.Jobs[i] = j.status()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// lookup resolves {id}, answering 404 itself when absent.
func (s *Service) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + r.PathValue("id")})
	}
	return j
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// cancelJob cancels a job's context and immediately finishes it when it
// never started running (a running job is finished by its worker).
func (s *Service) cancelJob(j *job) {
	j.cancel()
	// Stop answering identical submissions from this job right away,
	// even while a running solve winds down to its terminal state.
	s.mu.Lock()
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	s.mu.Unlock()
	if j.finishQueued() {
		s.mu.Lock()
		// Drop the dead entry so its queue slot frees up immediately
		// (it may already be gone if a worker popped it concurrently).
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		s.retireLocked(j)
		s.mu.Unlock()
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j)
	// A canceled solve reaches a terminal state within one scheduling
	// pass; wait for that so the answer carries the final state and the
	// best-so-far result, not a still-running snapshot. The client's own
	// request timeout bounds the wait.
	select {
	case <-j.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's incumbents as Server-Sent Events: the
// full history first (late subscribers replay every improvement), then
// live events, then one closing "done" event with the final status.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	seen := 0
	for {
		news, next, terminal := j.follow(seen)
		for _, ev := range news {
			writeSSE(w, "improvement", ev)
		}
		seen += len(news)
		if terminal {
			writeSSE(w, "done", j.status())
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one event; data is encoded compactly by AppendJSON, so
// it stays a single data: line.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := AppendJSON(nil, v)
	if err != nil {
		data = []byte(`{"error":"encoding event"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.met.reg.WriteText(w)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
