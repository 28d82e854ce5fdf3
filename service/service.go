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
//	GET    /jobs/{id}/checkpoint
//	                         the running job's latest incumbent as a
//	                         checkpoint document (ftdse.WriteCheckpoint),
//	                         404 when it has none; a coordinator pulls it.
//	GET    /metrics          Prometheus text exposition (queue depth,
//	                         cache hits and misses, solve latency and
//	                         queue wait histograms, evaluator counters…).
//	GET    /healthz          liveness ("ok", or 503 while draining).
//	GET    /readyz           readiness: 200 when the queue has room and
//	                         the service is not draining, 503 otherwise;
//	                         the JSON body carries the backlog.
//
// A submission may carry a warm start (a checkpoint document from a
// previous solve); see SubmitRequest.WarmStart.
//
// Everything is stdlib-only. Use New + Handler to embed the service in
// any mux; cmd/ftdsed wraps it in a daemon. The cluster package builds
// the sharded coordinator on top of this API and serves the same job
// routes through MountJobs. A node never calls the coordinator: the
// coordinator dispatches, polls and pulls checkpoints, and names the
// member it dispatches to in the Ftdse-Node header.
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
	// the problem documents the ProblemMemo remembers (default
	// DefaultCacheSize; negative disables both).
	CacheSize int
	// MaxTimeLimit, when positive, caps the per-request time limit so a
	// client cannot occupy a worker forever (0 = uncapped).
	MaxTimeLimit time.Duration
	// Logger receives the service's structured log records (job
	// lifecycle, backpressure rejections), each tagged with the job's
	// trace ID. nil discards them.
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
		c.CacheSize = DefaultCacheSize
	}
	return c
}

// DefaultCacheSize is the default of Config.CacheSize, and the size of
// the coordinator's ProblemMemo.
const DefaultCacheSize = 128

// maxJobs bounds the terminal jobs retained for status queries; the
// oldest are forgotten first.
const maxJobs = 4096

// Retire appends the terminal job id to retired, the terminal ids
// oldest first, and forgets the oldest of them from jobs while it holds
// more than 4096 jobs.
func Retire[J any](jobs map[string]J, retired []string, id string) []string {
	retired = append(retired, id)
	for len(jobs) > maxJobs && len(retired) > 0 {
		delete(jobs, retired[0])
		retired = retired[1:]
	}
	return retired
}

// Service is a concurrent solve service. Create with New, mount
// Handler, and Close to drain.
type Service struct {
	cfg    Config
	solver *ftdse.Solver        // shared base; per-job variants derived With()
	cache  *lru[string, []byte] // fingerprint → encoded JobResult
	memo   *ProblemMemo
	met    *metrics
	log    *slog.Logger

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
	start := time.Now()
	solver := s.solver.With(opts...)
	res, err := solver.Solve(j.ctx, j.problem)
	solveDur := time.Since(start)
	s.met.solvesInFlight.Add(-1)
	s.met.observeSolve(solveDur)

	if err != nil {
		s.log.Warn("solve failed", obs.TraceIDKey, j.traceID, "job", j.id, "error", err.Error())
		s.conclude(j, StateFailed, nil, err.Error())
		return
	}
	spans := []obs.Span{
		{Name: "queue_wait", StartMs: 0, DurationMs: durMs(queueWait), Node: j.node},
		{Name: "solve", StartMs: durMs(queueWait), DurationMs: durMs(solveDur), Node: j.node},
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
		s.retired = Retire(s.jobs, s.retired, j.id)
	}
	s.mu.Unlock()
}

// durMs renders a duration in float milliseconds (the wire convention).
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// encodeResult renders a solver result as the wire JobResult document,
// carrying the executing request's trace identity and server-side spans
// (and the flight-recorder trace when the job asked for one).
func encodeResult(res *ftdse.Result, traceID string, spans []obs.Span) ([]byte, error) {
	sched, err := ftdse.MarshalSchedule(res.Schedule)
	if err != nil {
		return nil, fmt.Errorf("service: encoding schedule: %w", err)
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
		Schedule:    json.RawMessage(sched),
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

// nodeJobs is the node's side of the job surface.
type nodeJobs struct{ *Service }

// Admit atomically admits a set of prepared submissions: cache hits
// are answered in place, submissions whose fingerprint is already in
// flight coalesce onto the existing job (same id — solves are
// deterministic per fingerprint, so one solve answers them all), and
// either every genuinely new job fits the queue or the whole set is
// rejected with queue-full (backpressure is all-or-nothing so a batch
// cannot be half-admitted).
func (s nodeJobs) Admit(reqs []Prepared) ([]*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &SubmitError{Code: http.StatusServiceUnavailable, Err: ErrDraining}
	}
	// Pass 1: cache and in-flight lookups and the queue-capacity check
	// for the rest — no metrics, IDs, or registrations yet, so a
	// rejected batch leaves no trace beyond its rejection count.
	bodies := make([][]byte, len(reqs))
	jobs := make([]*job, len(reqs)) // pass 1 fills in the in-flight jobs shared
	fresh := make(map[string]struct{})
	need := 0
	firstFresh := ""
	for i, r := range reqs {
		if body, ok := s.cache.get(r.Fingerprint); ok {
			bodies[i] = body
			continue
		}
		// Coalesce only onto jobs not already canceled: a submission
		// arriving after a cancel deserves a fresh solve, not the
		// winding-down job's truncated result.
		if j := s.inflight[r.Fingerprint]; j != nil && j.ctx.Err() == nil {
			jobs[i] = j
			continue
		}
		if _, dup := fresh[r.Fingerprint]; dup {
			continue // coalesces onto its batch-mate in pass 2
		}
		fresh[r.Fingerprint] = struct{}{}
		if firstFresh == "" {
			firstFresh = r.Fingerprint
		}
		need++
	}
	if need > s.cfg.QueueSize-len(s.pending) {
		// Only the jobs that needed queue space count as rejected: the
		// batch's cache hits and coalesced submissions were answerable.
		s.met.jobsRejected.Add(int64(need))
		s.log.Warn("job queue full", "fingerprint", firstFresh,
			"queue_depth", len(s.pending), "rejected", need)
		return nil, &SubmitError{
			Code:        http.StatusTooManyRequests,
			RetryAfter:  s.retryAfterLocked(),
			Fingerprint: firstFresh,
			QueueDepth:  len(s.pending),
			Err:         errors.New("job queue full"),
		}
	}
	// Pass 2: count, register and enqueue — all under the same lock as
	// the capacity check, so admission is atomic.
	for i, r := range reqs {
		switch {
		case bodies[i] != nil:
			s.met.cacheHits.Inc()
			j := newCachedJob(s.newIDLocked(), r.Fingerprint, r.Request.TraceID, r.opts, bodies[i])
			jobs[i] = j
			s.jobs[j.id] = j
			s.retired = Retire(s.jobs, s.retired, j.id)
			continue
		case jobs[i] != nil:
			s.met.jobsCoalesced.Inc()
		case s.inflight[r.Fingerprint] != nil: // batch-mate created below
			s.met.jobsCoalesced.Inc()
			jobs[i] = s.inflight[r.Fingerprint]
		default:
			s.met.cacheMisses.Inc()
			s.met.jobsSubmitted.Inc()
			j := newJob(s.newIDLocked(), r.Fingerprint, r.Request.TraceID, r.opts, r.problem)
			// When identical submissions coalesce, the first one's warm
			// start wins: later hints could only steer the same
			// deterministic search from a different (never worse for the
			// submitter) starting point, and a job must not change under
			// clients already attached to it. The member name is the
			// first submission's too.
			j.warm, j.node = r.warm, r.node
			jobs[i] = j
			s.jobs[j.id] = j
			s.inflight[r.Fingerprint] = j
			s.pending = append(s.pending, j)
			s.workCond.Signal()
		}
		jobs[i].attach()
	}
	return jobs, nil
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
	MountJobs(mux, nodeJobs{s}, s.memo, s.cfg.MaxTimeLimit)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

func (s nodeJobs) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	return j, j != nil
}

func (nodeJobs) Status(j *job) JobStatus { return j.status() }

func (nodeJobs) Done(j *job) <-chan struct{} { return j.done }

// Leave drops the submission's interest and stops the solve only when
// no other submission coalesced onto the job: others still want it.
func (s nodeJobs) Leave(j *job) {
	if j.release() {
		s.cancelJob(j)
	}
}

// Cancel cancels the job for every client attached to it.
func (s nodeJobs) Cancel(_ context.Context, j *job) { s.cancelJob(j) }

// Follow replays the job's history, then its live events.
func (nodeJobs) Follow(ctx context.Context, j *job, send func(...ProgressEvent)) bool {
	for seen := 0; ; {
		news, next, terminal := j.follow(seen)
		if len(news) > 0 {
			send(news...)
			seen += len(news)
		}
		if terminal {
			return true
		}
		select {
		case <-next:
		case <-ctx.Done():
			return false
		}
	}
}

// Checkpoint encodes the running job's latest incumbent as a
// checkpoint document under the job's fingerprint; a job with no
// incumbent, or a terminal one, has none.
func (nodeJobs) Checkpoint(j *job) ([]byte, error) {
	j.mu.Lock()
	prob, imp := j.problem, j.lastImp
	j.mu.Unlock()
	if len(imp.Design) == 0 {
		return nil, nil
	}
	ck, err := ftdse.NewCheckpoint(prob, j.fingerprint, imp)
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&doc, ck); err != nil {
		return nil, err
	}
	return doc.Bytes(), nil
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
		s.retired = Retire(s.jobs, s.retired, j.id)
		s.mu.Unlock()
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.met.reg.WriteText(w)
}

// handleReady answers GET /readyz: 200 with Ready true when the node
// can accept new work right now (not draining, queue not full), 503
// with the same document otherwise. The body always carries the queue
// backlog, so the coordinator's health pass doubles as its load probe.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.pending)
	draining := s.draining
	s.mu.Unlock()
	st := ReadyStatus{
		Ready:          !draining && depth < s.cfg.QueueSize,
		Draining:       draining,
		QueueDepth:     depth,
		QueueCapacity:  s.cfg.QueueSize,
		SolvesInFlight: int(s.met.solvesInFlight.Value()),
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, st)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
