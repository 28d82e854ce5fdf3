package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// The coordinator speaks the ftdsed wire protocol on its job surface —
// POST /solve, POST /solve/batch, GET/DELETE /jobs/{id},
// GET /jobs/{id}/events — so the typed client package works against it
// unchanged; jobs just run on whichever node the shard map picks. On
// top of that it serves the cluster surface: POST /cluster/checkpoints
// (nodes push incumbents here), GET /cluster/checkpoints/{fp} (clients
// fetch a prior incumbent to warm-start a similar problem), and
// GET /cluster/shards (the shard map report).

// maxBody bounds request bodies, matching the node's limit.
const maxBody = 16 << 20

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", c.handleSolve)
	mux.HandleFunc("POST /solve/batch", c.handleBatch)
	mux.HandleFunc("GET /jobs/{id}", c.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("POST /cluster/checkpoints", c.handleCheckpointPush)
	mux.HandleFunc("GET /cluster/checkpoints/{fp}", c.handleCheckpointGet)
	mux.HandleFunc("GET /cluster/shards", c.handleShards)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	return mux
}

// writeJSON emits a response exactly as json.NewEncoder(w).Encode(v)
// would, encoded by service.AppendJSON: the result document a node sent
// is forwarded as it arrived, not encoded again.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := service.AppendJSON(nil, v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		w.Write(append(body, '\n'))
	}
}

func writeBadRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, service.ErrorResponse{Error: err.Error()})
}

// validate checks a submission the way a node would — the problem
// document parses, the options normalize, a warm start (if any) is a
// well-formed checkpoint — and returns its fingerprint. Validating at
// the edge keeps garbage out of the journal: every journaled submit
// record is dispatchable. The document goes through the coordinator's
// ProblemMemo, so a repeated one is neither decoded nor re-encoded.
func (c *Coordinator) validate(req service.SubmitRequest) (string, error) {
	if len(req.Problem) == 0 {
		return "", errors.New("missing problem document")
	}
	if req.TraceID != "" && !obs.ValidTraceID(req.TraceID) {
		return "", fmt.Errorf("invalid trace id %q", req.TraceID)
	}
	_, fp, err := c.memo.Resolve(req.Problem, req.Options)
	if err != nil {
		return "", err
	}
	if len(req.WarmStart) > 0 {
		if _, err := ftdse.ReadCheckpoint(bytes.NewReader(req.WarmStart)); err != nil {
			return "", fmt.Errorf("warm start: %w", err)
		}
	}
	return fp, nil
}

// admit journals and registers a set of validated submissions
// atomically: duplicates of an open fingerprint coalesce onto the
// existing job, and either every genuinely new job fits under
// MaxPending or the whole set is rejected (all-or-nothing, like the
// node's queue). The journal append happens under the admission lock —
// a submit record must hit disk before its 202 — which serializes
// fsyncs; submission is a control-plane operation, the solves are the
// work, so the ceiling is acceptable.
func (c *Coordinator) admit(reqs []service.SubmitRequest, fps []string) ([]*cjob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("coordinator closed")
	}
	fresh := make(map[string]bool, len(reqs))
	need := 0
	for i := range reqs {
		if c.open[fps[i]] == nil && !fresh[fps[i]] {
			fresh[fps[i]] = true
			need++
		}
	}
	if len(c.open)+need > c.cfg.MaxPending {
		c.met.rejected.Add(int64(need))
		c.log.Warn("admission cap reached, rejecting batch",
			"rejected", need, "open_jobs", len(c.open), "max_pending", c.cfg.MaxPending)
		return nil, errTooManyJobs
	}
	jobs := make([]*cjob, len(reqs))
	var started []*cjob
	for i, req := range reqs {
		if j := c.open[fps[i]]; j != nil {
			// Coalesced submissions adopt the open job's trace ID (first
			// submission wins), matching the node's contract.
			c.met.coalesced.Inc()
			jobs[i] = j
			continue
		}
		// Mint the trace identity before journaling so the submit record —
		// and every re-dispatch after a restart — carries it.
		if req.TraceID == "" {
			req.TraceID = obs.NewTraceID()
		}
		c.nextID++
		j := &cjob{
			id: fmt.Sprintf("c%06d", c.nextID), fp: fps[i], req: req,
			traceID:   req.TraceID,
			submitted: time.Now(),
			state:     service.StateQueued,
			done:      make(chan struct{}),
		}
		if c.wal != nil {
			body, err := json.Marshal(req)
			if err == nil {
				err = c.wal.append(journalRecord{Type: recSubmit, ID: j.id, Fingerprint: j.fp, Request: body})
			}
			if err != nil {
				// Never acknowledge a job that would not survive a restart.
				return nil, fmt.Errorf("journaling submission: %w", err)
			}
		}
		c.met.submitted.Inc()
		c.log.Info("job admitted", obs.TraceIDKey, j.traceID,
			"job", j.id, "fingerprint", j.fp)
		c.jobs[j.id] = j
		c.open[j.fp] = j
		jobs[i] = j
		started = append(started, j)
	}
	for _, j := range started {
		c.spawnMonitor(j)
	}
	return jobs, nil
}

// errTooManyJobs is the admission-cap rejection.
var errTooManyJobs = errors.New("too many pending jobs")

func (c *Coordinator) writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, errTooManyJobs) {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests,
			service.ErrorResponse{Error: err.Error(), RetryAfterS: 5})
		return
	}
	writeBadRequest(w, err)
}

func (c *Coordinator) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req service.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeBadRequest(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.TraceID == "" {
		req.TraceID = r.Header.Get(obs.TraceHeader)
	}
	fp, err := c.validate(req)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	jobs, err := c.admit([]service.SubmitRequest{req}, []string{fp})
	if err != nil {
		c.writeSubmitError(w, err)
		return
	}
	j := jobs[0]
	w.Header().Set(obs.TraceHeader, j.traceID)
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// The submission stands — the cluster's contract is zero lost
			// jobs, so a disconnected waiter does not cancel anything.
			return
		}
	}
	st := j.status()
	code := http.StatusAccepted
	if service.TerminalState(st.State) {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeBadRequest(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeBadRequest(w, errors.New("empty batch"))
		return
	}
	fps := make([]string, len(req.Jobs))
	for i, jr := range req.Jobs {
		fp, err := c.validate(jr)
		if err != nil {
			writeBadRequest(w, fmt.Errorf("batch job %d: %w", i, err))
			return
		}
		fps[i] = fp
	}
	jobs, err := c.admit(req.Jobs, fps)
	if err != nil {
		c.writeSubmitError(w, err)
		return
	}
	resp := service.BatchResponse{Jobs: make([]service.JobStatus, len(jobs))}
	for i, j := range jobs {
		resp.Jobs[i] = j.status()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// lookup resolves {id}, answering 404 itself when absent.
func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) *cjob {
	c.mu.Lock()
	j := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound,
			service.ErrorResponse{Error: "unknown job " + r.PathValue("id")})
	}
	return j
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := c.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	j.cancelReq = true
	node, remoteID := j.node, j.remoteID
	j.mu.Unlock()
	if node != "" {
		// Forward the cancel; the monitor's poll observes the remote
		// terminal state and concludes the job (cancelReq set, so the
		// remote cancellation is final rather than a failover signal).
		// With no node yet, the monitor concludes the job itself, or the
		// dispatch in flight forwards the cancel once the node accepts.
		c.cancelRemote(r.Context(), node, remoteID)
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, j.status())
}

// cancelRemote forwards a cancel to the node running a job.
func (c *Coordinator) cancelRemote(ctx context.Context, node, remoteID string) {
	m := c.members[node]
	if m == nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, m.url+"/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	if resp, err := c.hc.Do(req); err == nil {
		resp.Body.Close()
	}
}

// handleEvents re-serves a job's improvement stream from whichever node
// currently runs it, surviving failover: when the solve moves, the
// proxy re-subscribes on the new node. A resumed attempt replays its
// own history (starting from the warm-started incumbent), so the proxy
// applies the same monotone gate the solver applies internally —
// only events that improve on the best cost already delivered are
// forwarded — and the merged stream stays monotone like a node's own.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, service.ErrorResponse{Error: "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	gate := newMonotoneGate()
	for {
		j.mu.Lock()
		terminal := service.TerminalState(j.state)
		node, remoteID := j.node, j.remoteID
		j.mu.Unlock()
		if terminal {
			writeSSE(w, "done", j.status())
			fl.Flush()
			return
		}
		if node != "" {
			if m := c.members[node]; m != nil {
				nc := client.New(m.url, c.hc)
				// Stream one attempt; errors (node died, job re-mapped) fall
				// through to the outer loop, which waits and re-subscribes.
				nc.Stream(r.Context(), remoteID, func(ev service.ProgressEvent) {
					if gate.admit(ev) {
						writeSSE(w, "improvement", ev)
						fl.Flush()
					}
				})
			}
		}
		// The attempt ended (or the job is unassigned): wait for the
		// coordinator's conclusion or the next assignment.
		select {
		case <-j.done:
		case <-time.After(c.cfg.PollInterval):
		case <-r.Context().Done():
			return
		}
	}
}

// monotoneGate admits only strictly improving costs, in the solver's
// cost order (tardiness first, then makespan).
type monotoneGate struct {
	has  bool
	tard float64
	mksp float64
}

func newMonotoneGate() *monotoneGate { return &monotoneGate{} }

func (g *monotoneGate) admit(ev service.ProgressEvent) bool {
	if g.has && (ev.TardinessMs > g.tard ||
		(ev.TardinessMs == g.tard && ev.MakespanMs >= g.mksp)) {
		return false
	}
	g.has, g.tard, g.mksp = true, ev.TardinessMs, ev.MakespanMs
	return true
}

// writeSSE emits one event, data encoded compactly by service.AppendJSON.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := service.AppendJSON(nil, v)
	if err != nil {
		data = []byte(`{"error":"encoding event"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleCheckpointPush ingests one search checkpoint from a node. The
// freshest-and-best document per fingerprint is journaled and kept; a
// push that would regress the stored incumbent (a cold re-solve racing
// a warm one) is dropped, so warm starts never get worse.
func (c *Coordinator) handleCheckpointPush(w http.ResponseWriter, r *http.Request) {
	var push service.CheckpointPush
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&push); err != nil {
		writeBadRequest(w, fmt.Errorf("decoding checkpoint push: %w", err))
		return
	}
	if push.Fingerprint == "" {
		writeBadRequest(w, errors.New("checkpoint push without fingerprint"))
		return
	}
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(push.Checkpoint))
	if err != nil {
		writeBadRequest(w, fmt.Errorf("checkpoint document: %w", err))
		return
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	c.mu.Lock()
	stored, ok := c.ckpts[push.Fingerprint]
	c.mu.Unlock()
	if ok {
		if old, err := ftdse.ReadCheckpoint(bytes.NewReader(stored)); err == nil && !asGoodAs(ck, old) {
			writeJSON(w, http.StatusOK, struct{}{})
			return
		}
	}
	if c.wal != nil {
		if err := c.wal.append(journalRecord{
			Type: recCheckpoint, Fingerprint: push.Fingerprint, Checkpoint: push.Checkpoint,
		}); err != nil {
			writeJSON(w, http.StatusInternalServerError, service.ErrorResponse{Error: err.Error()})
			return
		}
	}
	c.mu.Lock()
	c.ckpts[push.Fingerprint] = push.Checkpoint
	c.mu.Unlock()
	c.met.ckptsReceived.Inc()
	c.log.Info("checkpoint received", obs.TraceIDKey, r.Header.Get(obs.TraceHeader),
		"node", push.Node, "remote_job", push.JobID, "fingerprint", push.Fingerprint)
	writeJSON(w, http.StatusOK, struct{}{})
}

// asGoodAs reports whether checkpoint a's incumbent is at least as good
// as b's, in the solver's cost order. Ties admit a (fresher wins: a
// later checkpoint of the same fingerprint carries more elapsed search).
func asGoodAs(a, b ftdse.Checkpoint) bool {
	if a.TardinessMs != b.TardinessMs {
		return a.TardinessMs < b.TardinessMs
	}
	return a.MakespanMs <= b.MakespanMs
}

// handleCheckpointGet serves the freshest stored checkpoint for a
// fingerprint — the warm-start hook for similar problems: fetch the
// incumbent of a solved variant, submit the new problem with it as
// WarmStart, and the search starts from that design when it fits.
func (c *Coordinator) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	ck := c.LatestCheckpoint(fp)
	if ck == nil {
		writeJSON(w, http.StatusNotFound,
			service.ErrorResponse{Error: "no checkpoint for " + fp})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(ck)
}

// ShardsResponse is the body of GET /cluster/shards.
type ShardsResponse struct {
	Nodes []ShardStat `json:"nodes"`
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ShardsResponse{Nodes: c.shardStats()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	c.met.reg.WriteText(w)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady answers the coordinator's own readiness: started, below
// the admission cap, and at least one live node to dispatch to.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	alive := c.aliveNodes()
	c.mu.Lock()
	st := service.ReadyStatus{
		Ready:         c.started && !c.closed && alive > 0 && len(c.open) < c.cfg.MaxPending,
		QueueDepth:    len(c.open),
		QueueCapacity: c.cfg.MaxPending,
	}
	c.mu.Unlock()
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
