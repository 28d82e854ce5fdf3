package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/ftdse"
)

// job is one submitted solve. Its lifecycle is queued → running →
// {done, failed, canceled}; cache hits are born terminal. All mutable
// state is guarded by mu; terminality is additionally signaled by the
// done channel so waiters need not poll.
type job struct {
	id          string
	fingerprint string
	// traceID is the request identity of the submission that created the
	// job (immutable — later coalesced submissions share it). It tags
	// the job's log lines, SSE events, status and result.
	traceID string
	opts    SolveOptions // normalized
	problem ftdse.Problem
	// warm optionally seeds the solve with a prior incumbent (from a
	// checkpoint); it rides outside the fingerprint, see
	// SubmitRequest.WarmStart.
	warm ftdse.Design
	// node names the cluster member in the job's spans (Prepared.node).
	node      string
	submitted time.Time

	// ctx governs the solve; cancel fires on DELETE /jobs/{id}, on
	// wait-mode client disconnect, and on drain.
	ctx    context.Context //ftlint:allow boundary the job owns its solve's lifecycle; this ctx is born with the job and only handed down to the worker
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	cached   bool
	refs     int // submissions attached to this job (coalescing)
	started  *time.Time
	finished *time.Time
	events   []ProgressEvent
	lastImp  ftdse.Improvement // latest incumbent incl. design (checkpoint source)
	notify   chan struct{}     // closed and replaced on every event/transition
	done     chan struct{}     // closed once, on reaching a terminal state
	result   []byte            // encoded JobResult, set at terminality when available
	errMsg   string
}

func newJob(id, fp, traceID string, opts SolveOptions, p ftdse.Problem) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:          id,
		fingerprint: fp,
		traceID:     traceID,
		opts:        opts,
		problem:     p,
		submitted:   time.Now(),
		ctx:         ctx,
		cancel:      cancel,
		state:       StateQueued,
		notify:      make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// newCachedJob creates a job already completed from a cached result.
// It never solves, so it shares one canceled context and one closed
// channel with every other cached job; its cancel is a no-op that
// cancelJob and Close may still call.
func newCachedJob(id, fp, traceID string, opts SolveOptions, body []byte) *job {
	now := time.Now()
	return &job{
		id:          id,
		fingerprint: fp,
		traceID:     traceID,
		opts:        opts,
		submitted:   now,
		ctx:         canceledCtx,
		cancel:      func() {},
		state:       StateDone,
		cached:      true,
		finished:    &now,
		notify:      closedCh,
		done:        closedCh,
		result:      body,
	}
}

// canceledCtx and closedCh are the context and the channels of every
// job born terminal.
var (
	canceledCtx = func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}()
	closedCh = func() chan struct{} {
		ch := make(chan struct{})
		close(ch)
		return ch
	}()
)

// attach records one more submission sharing this job (identical
// in-flight submissions coalesce onto one solve).
func (j *job) attach() {
	j.mu.Lock()
	j.refs++
	j.mu.Unlock()
}

// release drops one submission's interest — a ?wait=1 client that
// disconnected — and reports whether no interest remains, in which case
// the caller should cancel the solve.
func (j *job) release() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.refs--
	return j.refs <= 0
}

// wake closes and replaces the notify channel; callers hold mu.
func (j *job) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// run marks the job running; it reports false when the job already left
// the queued state (e.g. canceled while queued).
func (j *job) run() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	now := time.Now()
	j.state = StateRunning
	j.started = &now
	j.wakeLocked()
	return true
}

// publish appends one incumbent to the event history and wakes
// subscribers. It runs synchronously on the search goroutine (the
// WithProgress contract), so it only appends and signals.
func (j *job) publish(imp ftdse.Improvement) {
	ev := ProgressEvent{
		Phase:       imp.Phase,
		Iteration:   imp.Iteration,
		MakespanMs:  imp.Cost.Makespan.Milliseconds(),
		TardinessMs: imp.Cost.Tardiness.Milliseconds(),
		Schedulable: imp.Schedulable,
		ElapsedMs:   float64(imp.Elapsed) / float64(time.Millisecond),
		TraceID:     j.traceID,
	}
	j.mu.Lock()
	j.events = append(j.events, ev)
	// The observer owns imp.Design (a private clone), so retaining it
	// for the checkpoint route is safe.
	j.lastImp = imp
	j.wakeLocked()
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, reporting
// whether this call made the transition; later calls are no-ops (e.g. a
// cancel racing the worker's own completion).
func (j *job) finish(state string, result []byte, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if TerminalState(j.state) {
		return false
	}
	j.finishLocked(state, result, errMsg)
	return true
}

// finishQueued cancels a job that never left the queue, reporting
// whether it was still queued (running jobs are finished by their
// worker instead). It shares finish's terminal transition, so the two
// paths cannot drift.
func (j *job) finishQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.finishLocked(StateCanceled, nil, "")
	return true
}

// finishLocked is the single terminal transition; callers hold mu and
// have checked the current state.
func (j *job) finishLocked(state string, result []byte, errMsg string) {
	now := time.Now()
	j.state = state
	j.finished = &now
	j.result = result
	j.errMsg = errMsg
	// The solve has consumed the problem, and a terminal job serves no
	// checkpoint; drop both so retained terminal jobs (up to maxJobs)
	// hold only their result bytes. The problem may be shared with
	// other jobs through the ProblemMemo; only this job's handle goes.
	j.problem = ftdse.Problem{}
	j.lastImp = ftdse.Improvement{}
	close(j.done)
	j.wakeLocked()
}

// status snapshots the public view.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:           j.id,
		State:        j.state,
		Fingerprint:  j.fingerprint,
		TraceID:      j.traceID,
		Cached:       j.cached,
		Improvements: len(j.events),
		SubmittedAt:  j.submitted,
		StartedAt:    j.started,
		FinishedAt:   j.finished,
		Error:        j.errMsg,
		Result:       json.RawMessage(j.result),
	}
}

// follow snapshots the events not yet seen by a subscriber positioned
// at from, together with the channel that will signal the next change
// and whether the job is already terminal.
func (j *job) follow(from int) (news []ProgressEvent, next chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		news = append(news, j.events[from:]...)
	}
	return news, j.notify, TerminalState(j.state)
}
