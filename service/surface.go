package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
)

// JobTier is what the job surface needs from the tier behind it, a node
// or the cluster coordinator, whose job type is J: how it admits jobs,
// and what a client leaving a wait, a cancel and following events do.
type JobTier[J any] interface {
	// Admit registers prepared submissions atomically and returns their
	// jobs in order. A *SubmitError answers with its status, any other
	// error with 400.
	Admit([]Prepared) ([]J, error)
	Job(id string) (J, bool)
	Status(J) JobStatus
	Done(J) <-chan struct{} // closed once the job is terminal
	// Leave is called when a ?wait=1 client disconnects first.
	Leave(J)
	// Cancel asks the job to stop; DELETE then waits on Done.
	Cancel(context.Context, J)
	// Follow sends the job's improvement events, each once, until the
	// job is terminal (true) or ctx ends (false).
	Follow(ctx context.Context, j J, send func(...ProgressEvent)) bool
	// Checkpoint returns the checkpoint document of the job's latest
	// incumbent, nil when it has none.
	Checkpoint(J) ([]byte, error)
}

// MountJobs mounts the job surface, POST /solve, POST /solve/batch, GET
// and DELETE /jobs/{id}, GET /jobs/{id}/events and GET
// /jobs/{id}/checkpoint, over tier t: both tiers serve one
// implementation. Submissions are checked by memo.Prepare with
// maxTimeLimit.
func MountJobs[J any](mux *http.ServeMux, t JobTier[J], memo *ProblemMemo, maxTimeLimit time.Duration) {
	s := &surface[J]{tier: t, memo: memo, maxTimeLimit: maxTimeLimit}
	mux.HandleFunc("POST /solve", s.solve)
	mux.HandleFunc("POST /solve/batch", s.batch)
	mux.HandleFunc("GET /jobs/{id}", s.get)
	mux.HandleFunc("DELETE /jobs/{id}", s.cancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.events)
	mux.HandleFunc("GET /jobs/{id}/checkpoint", s.checkpoint)
}

type surface[J any] struct {
	tier         JobTier[J]
	memo         *ProblemMemo
	maxTimeLimit time.Duration
}

// Prepared is a submission that passed ProblemMemo.Prepare: the request
// as sent with its trace ID filled in, and its fingerprint.
type Prepared struct {
	Request     SubmitRequest
	Fingerprint string

	opts    SolveOptions // normalized, the time limit capped
	problem ftdse.Problem
	warm    ftdse.Design // the warm start, when it fits the problem
	node    string       // the member named by a dispatch's Ftdse-Node header
}

// Prepare checks one submission as every tier does: the options
// normalize, the trace ID is valid (one is minted when absent), the
// problem document is valid, and a warm start is a well-formed
// checkpoint. A repeated document is neither decoded nor re-encoded. A
// positive maxTimeLimit caps the time limit before fingerprinting.
func (m *ProblemMemo) Prepare(req SubmitRequest, maxTimeLimit time.Duration) (Prepared, error) {
	opts, err := req.Options.normalized()
	if err != nil {
		return Prepared{}, err
	}
	switch {
	case req.TraceID == "":
		req.TraceID = obs.NewTraceID()
	case !obs.ValidTraceID(req.TraceID):
		return Prepared{}, fmt.Errorf("invalid trace id %q", req.TraceID)
	}
	if maxTimeLimit > 0 && (opts.timeLimit() <= 0 || opts.timeLimit() > maxTimeLimit) {
		opts.TimeLimitMs = float64(maxTimeLimit) / float64(time.Millisecond)
	}
	if len(req.Problem) == 0 {
		return Prepared{}, errors.New("missing problem document")
	}
	// The memo keys on the options after the cap, which the fingerprint
	// includes.
	prob, fp, err := m.resolve(req.Problem, opts)
	if err != nil {
		return Prepared{}, err
	}
	p := Prepared{Request: req, Fingerprint: fp, opts: opts, problem: prob}
	if len(req.WarmStart) > 0 {
		// A malformed checkpoint is a client bug (reject); one that
		// parses but does not fit this problem is a stale best-effort
		// hint (ignore) — the warm-start contract of WithWarmStart.
		ck, err := ftdse.ReadCheckpoint(bytes.NewReader(req.WarmStart))
		if err != nil {
			return Prepared{}, fmt.Errorf("warm start: %w", err)
		}
		if d, err := ftdse.CheckpointDesign(prob, ck); err == nil {
			p.warm = d
		}
	}
	return p, nil
}

// ErrDraining refuses a submission to a tier that is shutting down: a
// draining node or a closed coordinator.
var ErrDraining = errors.New("service draining")

// SubmitError is a refused submission and its status: 429 when the
// tier is full (with a Retry-After hint and, from a node, the
// fingerprint that needed the slot and the queue depth), 503 while it
// shuts down, 500 when it cannot record the job.
type SubmitError struct {
	Code        int
	RetryAfter  time.Duration
	Fingerprint string
	QueueDepth  int
	Err         error
}

func (e *SubmitError) Error() string { return e.Err.Error() }

func (s *surface[J]) solve(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := DecodeBody(w, r, &req); err != nil {
		WriteError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	// The Ftdse-Trace-Id header is the out-of-band carrier of the same
	// identity; an explicit body field wins.
	if req.TraceID == "" {
		req.TraceID = r.Header.Get(obs.TraceHeader)
	}
	p, err := s.memo.Prepare(req, s.maxTimeLimit)
	if err != nil {
		WriteError(w, err)
		return
	}
	// A coordinator names the member it dispatches to; a node writes
	// the name into the job's spans.
	if node := r.Header.Get(obs.NodeHeader); obs.ValidTraceID(node) {
		p.node = node
	}
	jobs, err := s.tier.Admit([]Prepared{p})
	if err != nil {
		WriteError(w, err)
		return
	}
	j := jobs[0]
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		// A cache hit skips the select: the request context makes its
		// Done channel on first use.
		if done := s.tier.Done(j); !closed(done) {
			select {
			case <-done:
			case <-r.Context().Done():
				s.tier.Leave(j) // nobody reads an answer now
				return
			}
		}
	}
	st := s.tier.Status(j)
	// Echo the job's trace identity so callers that let the server mint
	// it can pick it up without parsing the body.
	w.Header().Set(obs.TraceHeader, st.TraceID)
	code := http.StatusAccepted
	if TerminalState(st.State) {
		code = http.StatusOK
	}
	WriteJSON(w, code, st)
}

func (s *surface[J]) batch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := DecodeBody(w, r, &req); err != nil {
		WriteError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		WriteError(w, errors.New("empty batch"))
		return
	}
	preps := make([]Prepared, len(req.Jobs))
	for i, jr := range req.Jobs {
		p, err := s.memo.Prepare(jr, s.maxTimeLimit)
		if err != nil {
			WriteError(w, fmt.Errorf("batch job %d: %w", i, err))
			return
		}
		preps[i] = p
	}
	jobs, err := s.tier.Admit(preps)
	if err != nil {
		WriteError(w, err)
		return
	}
	resp := BatchResponse{Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		resp.Jobs[i] = s.tier.Status(j)
	}
	WriteJSON(w, http.StatusAccepted, resp)
}

// job resolves {id}, answering 404 itself when absent.
func (s *surface[J]) job(w http.ResponseWriter, r *http.Request) (J, bool) {
	id := r.PathValue("id")
	j, ok := s.tier.Job(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + id})
	}
	return j, ok
}

func (s *surface[J]) get(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, s.tier.Status(j))
	}
}

func (s *surface[J]) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.tier.Cancel(r.Context(), j)
	// A canceled solve reaches a terminal state within one scheduling
	// pass; wait for that so the answer carries the final state and the
	// best-so-far result, not a still-running snapshot. The client's own
	// request timeout bounds the wait.
	select {
	case <-s.tier.Done(j):
	case <-r.Context().Done():
	}
	WriteJSON(w, http.StatusOK, s.tier.Status(j))
}

// events streams the job's incumbents as Server-Sent Events, then one
// closing "done" event with the final status.
func (s *surface[J]) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, ErrorResponse{Error: "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	send := func(evs ...ProgressEvent) {
		for _, ev := range evs {
			writeSSE(w, "improvement", ev)
		}
		fl.Flush()
	}
	if s.tier.Follow(r.Context(), j, send) {
		writeSSE(w, "done", s.tier.Status(j))
		fl.Flush()
	}
}

// checkpoint answers the job's latest incumbent as a checkpoint
// document, or 404 when it has none.
func (s *surface[J]) checkpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	doc, err := s.tier.Checkpoint(j)
	switch {
	case err != nil:
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	case doc == nil:
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "no checkpoint for job " + r.PathValue("id")})
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	}
}

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// maxBody bounds request bodies (problem documents are small).
const maxBody = 16 << 20

// DecodeBody decodes the JSON request body, at most 16 MiB, into v.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
}

// WriteJSON answers with v exactly as json.NewEncoder(w).Encode(v)
// would, encoded by AppendJSON into a pooled buffer: a job status
// carries its result document as copied bytes, so a cache hit answers
// with the very bytes the solve stored, the same bytes the SSE "done"
// event carries.
func WriteJSON(w http.ResponseWriter, code int, v any) {
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

// bodies recycles byte buffers: response bodies (a ResponseWriter, like
// any io.Writer, does not retain what it is given) and docKey's input.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps a rare large body, such as a big batch's, from
// staying in the pool.
const maxPooledBody = 64 << 10

// WriteError answers err: a *SubmitError with its status (and a 429
// with its Retry-After header), any other error with 400.
func WriteError(w http.ResponseWriter, err error) {
	var se *SubmitError
	if !errors.As(err, &se) {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	resp := ErrorResponse{Error: se.Err.Error()}
	if se.Code == http.StatusTooManyRequests {
		secs := max(int(se.RetryAfter/time.Second), 1)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		resp.RetryAfterS = secs
		resp.Fingerprint = se.Fingerprint
		resp.QueueDepth = se.QueueDepth
	}
	WriteJSON(w, se.Code, resp)
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
