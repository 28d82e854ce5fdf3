package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
)

// Node mode: a standalone ftdsed becomes a cluster solver node the
// moment a coordinator registers with it (POST /cluster/register).
// Registration only adds behavior — every standalone endpoint keeps
// working — and consists of an identity (the coordinator's name for
// this node), a push target, and a cadence: while a solve runs, the
// node pushes its latest incumbent design as a checkpoint document to
// the coordinator, so the search survives this process dying. The push
// loop is deliberately fire-and-forget (a dead coordinator costs a
// counter increment, never a slow solve): durability is the
// coordinator's job, the node only feeds it.

// defaultCheckpointInterval is the push cadence when the registration
// does not name one.
const defaultCheckpointInterval = time.Second

// clusterState is the node-mode identity, set by registration and read
// by the checkpoint push loops and /readyz.
type clusterState struct {
	mu          sync.Mutex
	node        string
	coordinator string
	interval    time.Duration
	client      *http.Client
}

func (c *clusterState) snapshot() (node, coordinator string, interval time.Duration, client *http.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node, c.coordinator, c.interval, c.client
}

// clusterNode returns the registered node name ("" when standalone).
func (s *Service) clusterNode() string {
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	return s.cluster.node
}

// handleReady answers GET /readyz: 200 with Ready true when the node
// can accept new work right now (not draining, queue not full), 503
// with the same document otherwise. The body always carries the queue
// backlog and the registered node name, so the coordinator's health
// pass doubles as its load probe and its restart detector.
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
		Node:           s.clusterNode(),
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, st)
}

// handleRegister answers POST /cluster/register: the coordinator hands
// the node its cluster identity and the checkpoint push target. A later
// registration replaces the previous one, so a restarted (or replaced)
// coordinator heals on its first health pass.
func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := DecodeBody(w, r, &req); err != nil {
		WriteError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Node == "" {
		WriteError(w, errors.New("missing node name"))
		return
	}
	u, err := url.Parse(req.Coordinator)
	if err != nil || u.Scheme == "" || u.Host == "" {
		WriteError(w, fmt.Errorf("invalid coordinator URL %q", req.Coordinator))
		return
	}
	interval := time.Duration(req.CheckpointMs * float64(time.Millisecond))
	if interval <= 0 {
		interval = defaultCheckpointInterval
	}
	s.cluster.mu.Lock()
	s.cluster.node = req.Node
	s.cluster.coordinator = u.String()
	s.cluster.interval = interval
	if s.cluster.client == nil {
		// Pushes must never outlive their usefulness: by the next tick a
		// fresher incumbent exists, so a stuck coordinator just drops
		// this one.
		s.cluster.client = &http.Client{Timeout: 10 * time.Second}
	}
	s.cluster.mu.Unlock()
	WriteJSON(w, http.StatusOK, RegisterResponse{Node: req.Node})
}

// startCheckpoints launches the checkpoint push loop for one running
// job and returns its stop function. Standalone services (no
// registration) get a no-op. The loop snapshots the job's latest
// incumbent every interval and pushes it when it changed; it runs
// entirely off the solve goroutine, so a slow or dead coordinator never
// slows the search.
func (s *Service) startCheckpoints(j *job) (stop func()) {
	node, coordinator, interval, client := s.cluster.snapshot()
	if node == "" {
		return func() {}
	}
	// The solve owns j.problem until terminality; the loop keeps its own
	// handle so a push racing the job's conclusion still has the problem
	// to name processes and nodes with.
	prob := j.problem
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		pushed := -1
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			imp, seq, ok := j.latest()
			if !ok || seq == pushed || len(imp.Design) == 0 {
				continue
			}
			if s.pushCheckpoint(client, coordinator, node, j, prob, imp) {
				pushed = seq
			}
		}
	}()
	return func() { close(done); <-finished }
}

// pushCheckpoint encodes one incumbent as a checkpoint document and
// posts it to the coordinator, reporting success. Failures count and
// log (with the job's trace ID) but never slow the search: the next
// improvement brings the next push.
func (s *Service) pushCheckpoint(client *http.Client, coordinator, node string, j *job, prob ftdse.Problem, imp ftdse.Improvement) bool {
	fail := func(err error) bool {
		s.met.checkpointPushErrors.Inc()
		s.log.Warn("checkpoint push failed", obs.TraceIDKey, j.traceID,
			"job", j.id, "node", node, "error", err.Error())
		return false
	}
	ck, err := ftdse.NewCheckpoint(prob, j.fingerprint, imp)
	if err != nil {
		return fail(err)
	}
	var doc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&doc, ck); err != nil {
		return fail(err)
	}
	body, err := json.Marshal(CheckpointPush{
		Node:        node,
		JobID:       j.id,
		Fingerprint: j.fingerprint,
		Checkpoint:  json.RawMessage(doc.Bytes()),
	})
	if err != nil {
		return fail(err)
	}
	req, err := http.NewRequest(http.MethodPost, coordinator+"/cluster/checkpoints", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, j.traceID)
	resp, err := client.Do(req)
	if err != nil {
		return fail(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("coordinator answered %s", resp.Status))
	}
	s.met.checkpointsPushed.Inc()
	return true
}
