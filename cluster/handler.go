package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/ftdse/client"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// The coordinator mounts the ftdsed job surface (service.MountJobs) —
// POST /solve, POST /solve/batch, GET/DELETE /jobs/{id},
// GET /jobs/{id}/events, GET /jobs/{id}/checkpoint — so the typed
// client package works against it unchanged; jobs just run on whichever
// node the shard map picks. On top of that it serves the cluster
// surface: GET /cluster/checkpoints/{fp} (clients fetch a prior
// incumbent to warm-start a similar problem) and GET /cluster/shards
// (the shard map report).

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	service.MountJobs(mux, coordJobs{c}, c.memo, 0)
	mux.HandleFunc("GET /cluster/checkpoints/{fp}", c.handleCheckpointGet)
	mux.HandleFunc("GET /cluster/shards", c.handleShards)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	return mux
}

// coordJobs is the coordinator's side of the job surface.
type coordJobs struct{ *Coordinator }

// Admit journals and registers a set of checked submissions
// atomically: duplicates of an open fingerprint coalesce onto the
// existing job, and either every genuinely new job fits under
// MaxPending or the whole set is rejected (all-or-nothing, like the
// node's queue). Each journaled submission is as the client sent it,
// its trace ID filled in, so every submit record is dispatchable. The
// journal append happens under the admission lock — a submit record
// must hit disk before its 202 — which serializes fsyncs; submission is
// a control-plane operation, the solves are the work, so the ceiling is
// acceptable.
func (c coordJobs) Admit(preps []service.Prepared) ([]*cjob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, &service.SubmitError{Code: http.StatusServiceUnavailable, Err: service.ErrDraining}
	}
	fresh := make(map[string]bool, len(preps))
	need := 0
	for _, p := range preps {
		if c.open[p.Fingerprint] == nil && !fresh[p.Fingerprint] {
			fresh[p.Fingerprint] = true
			need++
		}
	}
	if len(c.open)+need > c.cfg.MaxPending {
		c.met.rejected.Add(int64(need))
		c.log.Warn("admission cap reached, rejecting batch",
			"rejected", need, "open_jobs", len(c.open), "max_pending", c.cfg.MaxPending)
		return nil, &service.SubmitError{Code: http.StatusTooManyRequests,
			RetryAfter: 5 * time.Second, Err: errors.New("too many pending jobs")}
	}
	jobs := make([]*cjob, len(preps))
	for i, p := range preps {
		if j := c.open[p.Fingerprint]; j != nil {
			// Coalesced submissions adopt the open job's trace ID (first
			// submission wins), matching the node's contract.
			c.met.coalesced.Inc()
			jobs[i] = j
			continue
		}
		c.nextID++
		j := &cjob{
			id: fmt.Sprintf("c%06d", c.nextID), fp: p.Fingerprint, req: p.Request,
			traceID:   p.Request.TraceID,
			submitted: time.Now(),
			state:     service.StateQueued,
			done:      make(chan struct{}),
		}
		if c.wal != nil {
			body, err := service.AppendRequest(nil, p.Request, nil)
			if err == nil {
				err = c.wal.append(journalRecord{Type: recSubmit, ID: j.id, Fingerprint: j.fp, Request: body})
			}
			if err != nil {
				// Never acknowledge a job that would not survive a
				// restart. Batch-mates journaled before it are durable
				// and already running.
				return nil, &service.SubmitError{Code: http.StatusInternalServerError,
					Err: fmt.Errorf("journaling submission: %w", err)}
			}
		}
		c.met.submitted.Inc()
		c.log.Info("job admitted", obs.TraceIDKey, j.traceID,
			"job", j.id, "fingerprint", j.fp)
		c.jobs[j.id] = j
		c.open[j.fp] = j
		jobs[i] = j
		c.spawnMonitor(j)
	}
	return jobs, nil
}

func (c coordJobs) Job(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	return j, j != nil
}

func (coordJobs) Status(j *cjob) service.JobStatus { return j.status() }

func (coordJobs) Done(j *cjob) <-chan struct{} { return j.done }

// Leave keeps the job running: the cluster's contract is zero lost
// jobs, so a client that stops waiting cancels nothing.
func (coordJobs) Leave(*cjob) {}

// Cancel marks the job canceled and forwards the cancel to its node;
// the monitor's poll observes the remote terminal state and concludes
// the job (cancelReq set, so the remote cancellation is final rather
// than a failover signal). With no node yet, the monitor concludes the
// job itself, or the dispatch in flight forwards the cancel once the
// node accepts.
func (c coordJobs) Cancel(ctx context.Context, j *cjob) {
	j.mu.Lock()
	j.cancelReq = true
	node, remoteID := j.node, j.remoteID
	j.mu.Unlock()
	if node != "" {
		c.cancelRemote(ctx, node, remoteID)
	}
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

// Follow re-serves a job's improvement stream from whichever node
// currently runs it, surviving failover: when the solve moves, the
// proxy re-subscribes on the new node. A resumed attempt replays its
// own history (starting from the warm-started incumbent), so the proxy
// applies the same monotone gate the solver applies internally — only
// events that improve on the best cost already delivered are
// forwarded — and the merged stream stays monotone like a node's own.
func (c coordJobs) Follow(ctx context.Context, j *cjob, send func(...service.ProgressEvent)) bool {
	var gate monotoneGate
	for {
		j.mu.Lock()
		terminal := service.TerminalState(j.state)
		node, remoteID := j.node, j.remoteID
		j.mu.Unlock()
		if terminal {
			return true
		}
		if node != "" {
			if m := c.members[node]; m != nil {
				// Stream one attempt; errors (node died, job re-mapped)
				// fall through to the wait below, then a re-subscription.
				client.New(m.url, c.hc).Stream(ctx, remoteID, func(ev service.ProgressEvent) {
					if gate.admit(ev) {
						send(ev)
					}
				})
			}
		}
		// The attempt ended (or the job is unassigned): wait for the
		// coordinator's conclusion or the next assignment.
		select {
		case <-j.done:
		case <-time.After(c.cfg.PollInterval):
		case <-ctx.Done():
			return false
		}
	}
}

// Checkpoint is the freshest checkpoint stored for the job's
// fingerprint, terminal jobs included.
func (c coordJobs) Checkpoint(j *cjob) ([]byte, error) {
	return c.LatestCheckpoint(j.fp), nil
}

// cost is an incumbent's cost in the solver's order: tardiness first,
// then makespan.
type cost struct{ tard, mksp float64 }

// less reports whether a is strictly better than b.
func (a cost) less(b cost) bool {
	return a.tard < b.tard || (a.tard == b.tard && a.mksp < b.mksp)
}

// monotoneGate admits only strictly improving costs.
type monotoneGate struct {
	has  bool
	best cost
}

func (g *monotoneGate) admit(ev service.ProgressEvent) bool {
	c := cost{ev.TardinessMs, ev.MakespanMs}
	if g.has && !c.less(g.best) {
		return false
	}
	g.has, g.best = true, c
	return true
}

// handleCheckpointGet serves the freshest stored checkpoint for a
// fingerprint — the warm-start hook for similar problems: fetch the
// incumbent of a solved variant, submit the new problem with it as
// WarmStart, and the search starts from that design when it fits.
func (c *Coordinator) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	ck := c.LatestCheckpoint(fp)
	if ck == nil {
		service.WriteJSON(w, http.StatusNotFound,
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
	service.WriteJSON(w, http.StatusOK, ShardsResponse{Nodes: c.shardStats()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	c.met.reg.WriteText(w)
}

// handleHealth answers liveness as a node does: "ok", or 503 once the
// coordinator is closed.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorResponse{Error: "draining"})
		return
	}
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
	service.WriteJSON(w, code, st)
}
