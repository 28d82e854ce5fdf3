package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

const (
	// stealMargin is the queue-depth advantage (owner depth minus the
	// lightest ready node's depth) that triggers work stealing when the
	// shard owner is busy.
	stealMargin = 2
	// httpTimeout bounds each HTTP exchange with a node.
	httpTimeout = 15 * time.Second
)

// Node names one solver (ftdsed) member of the cluster.
type Node struct {
	// Name is the member's stable cluster identity (shard placement
	// hashes it, so renaming a node moves its shards).
	Name string
	// URL is the node's base URL, e.g. "http://10.0.0.7:8385".
	URL string
}

// Config tunes a Coordinator. Nodes is required; everything else has
// defaults.
type Config struct {
	// Nodes are the solver members. Names must be unique and non-empty.
	Nodes []Node
	// Journal is the write-ahead log path; "" keeps the journal in
	// memory only (acknowledged jobs then do not survive a coordinator
	// restart — fine for tests, not for production).
	Journal string
	// CheckpointInterval is the least time between two checkpoint pulls
	// of one dispatched job: when a status poll reports new
	// improvements and this long has passed since the dispatch or the
	// last pull, the job's monitor pulls its node's latest incumbent
	// (default 1s).
	CheckpointInterval time.Duration
	// HealthInterval is the readiness-probe cadence (default 1s).
	HealthInterval time.Duration
	// FailAfter marks a node dead after this many consecutive probe
	// failures (default 3); its in-flight jobs re-map to survivors.
	FailAfter int
	// PollInterval is the per-job status poll cadence (default 250ms).
	PollInterval time.Duration
	// MaxPending bounds the open (non-terminal) jobs; submissions beyond
	// it are rejected with 429 (default 1024).
	MaxPending int
	// Logger receives the coordinator's structured log lines (dispatches,
	// failovers, steals, node deaths), each tagged with the job's trace
	// ID when one applies. nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	return c
}

// member is the coordinator's live view of one node.
type member struct {
	name, url string

	mu    sync.Mutex
	alive bool // reachable (dead nodes' shards re-map)
	ready bool // accepting new work (queue not full, not draining)
	fails int  // consecutive probe failures
	depth int  // queue depth from the last probe
}

func (m *member) snapshot() (alive, ready bool, depth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive, m.ready, m.depth
}

// cjob is one job owned by the coordinator. The coordinator assigns its
// own IDs and maps them to (node, remote job id); the mapping changes
// on failover, the ID never does.
type cjob struct {
	id string
	fp string
	// traceID is the request identity minted (or accepted) at the submit
	// edge; it never changes across failover re-dispatches, so one solve
	// is one trace ID in the journal, every node's logs, the SSE stream
	// and the final result. Coalesced submissions share the first one.
	traceID   string
	submitted time.Time

	mu sync.Mutex
	// req is the submission, read by dispatch; a terminal job drops it
	// (its problem bytes and any warm start).
	req          service.SubmitRequest
	state        string
	node         string // owning member name ("" while unassigned)
	remoteID     string // job id on the owning node
	attempts     int    // dispatch attempts (for backoff/diagnostics)
	improvements int
	// pulledImps and pulledAt are the remote job's improvement count and
	// the time at its last checkpoint pull, or 0 and its dispatch time.
	pulledImps int
	pulledAt   time.Time
	cancelReq  bool
	cached     bool // the last dispatch was answered from the node's result cache
	result     json.RawMessage
	errMsg     string
	done       chan struct{}
}

// Coordinator shards solve jobs across ftdsed nodes. Create with New,
// mount Handler, call Start, and Close to stop.
type Coordinator struct {
	cfg     Config
	ring    *ring
	wal     *journal // nil without Config.Journal
	hc      *http.Client
	members map[string]*member // immutable map, mutable members
	memo    *service.ProblemMemo

	// ckptMu serializes keepCheckpoint from comparison through journal
	// append to store, so a worse checkpoint cannot pass the comparison
	// against one a better checkpoint is about to replace. It is taken
	// before mu, which is never held across the journal's fsync.
	ckptMu sync.Mutex

	mu      sync.Mutex
	jobs    map[string]*cjob
	open    map[string]*cjob           // fingerprint → non-terminal job
	ckpts   map[string]json.RawMessage // fingerprint → freshest checkpoint doc
	retired []string
	nextID  uint64
	started bool
	closed  bool

	met  *coordMetrics
	log  *slog.Logger
	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a coordinator: the shard map is derived from the node
// names, and the journal (when configured) is replayed — open jobs
// resume dispatching once Start is called. Nothing contacts the nodes
// until Start.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	names := make([]string, len(cfg.Nodes))
	members := make(map[string]*member, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", n.Name)
		}
		names[i] = n.Name
		if _, dup := members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n.Name)
		}
		members[n.Name] = &member{name: n.Name, url: n.URL}
	}
	r, err := newRing(names)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    r,
		hc:      &http.Client{Timeout: httpTimeout},
		members: members,
		memo:    service.NewProblemMemo(service.DefaultCacheSize),
		jobs:    make(map[string]*cjob),
		open:    make(map[string]*cjob),
		ckpts:   make(map[string]json.RawMessage),
		stop:    make(chan struct{}),
	}
	c.met = newCoordMetrics(c)
	c.log = cfg.Logger
	if c.log == nil {
		c.log = obs.Discard()
	}
	if cfg.Journal != "" {
		wal, recs, err := openJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		c.wal = wal
		c.replay(recs)
	}
	return c, nil
}

// replay reconstructs coordinator state from journal records.
func (c *Coordinator) replay(recs []journalRecord) {
	for _, r := range recs {
		switch r.Type {
		case recSubmit:
			var req service.SubmitRequest
			if json.Unmarshal(r.Request, &req) != nil || r.ID == "" {
				continue
			}
			j := &cjob{
				id: r.ID, fp: r.Fingerprint, req: req,
				traceID:   req.TraceID,
				submitted: time.Now(),
				state:     service.StateQueued,
				done:      make(chan struct{}),
			}
			if j.traceID == "" {
				// A journal written before trace propagation: the resumed
				// solve still gets an identity.
				j.traceID = obs.NewTraceID()
				j.req.TraceID = j.traceID
			}
			c.jobs[j.id] = j
			c.open[j.fp] = j
			var n uint64
			if _, err := fmt.Sscanf(r.ID, "c%06d", &n); err == nil && n > c.nextID {
				c.nextID = n
			}
		case recDone:
			j := c.jobs[r.ID]
			if j == nil {
				continue
			}
			j.state = r.State
			j.result = r.Result
			j.req = service.SubmitRequest{}
			close(j.done)
			if c.open[j.fp] == j {
				delete(c.open, j.fp)
			}
		case recCheckpoint:
			if r.Fingerprint != "" && len(r.Checkpoint) > 0 {
				c.ckpts[r.Fingerprint] = r.Checkpoint
			}
		}
	}
}

// Start begins the health loop and the monitors of journal-replayed
// jobs. selfURL is unused: nodes never call the coordinator.
func (c *Coordinator) Start(selfURL string) error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return errors.New("cluster: coordinator already started")
	}
	c.started = true
	var resumed []*cjob
	for _, j := range c.open {
		resumed = append(resumed, j) //ftlint:allow determinism monitors are independent goroutines; launch order is immaterial
	}
	c.mu.Unlock()

	// Probe synchronously once so the first submissions after Start see
	// live membership instead of racing the first health tick.
	c.healthPass()
	c.wg.Add(1)
	go c.healthLoop()
	for _, j := range resumed {
		c.met.redispatches.Inc()
		c.log.Info("resuming journaled job", obs.TraceIDKey, j.traceID, "job", j.id)
		c.spawnMonitor(j)
	}
	return nil
}

// Close stops the loops and closes the journal. Jobs in flight on the
// nodes keep running there; a restarted coordinator re-adopts them via
// the journal.
//
//ftdse:shutdown
func (c *Coordinator) Close(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if c.wal != nil {
		if cerr := c.wal.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// LatestCheckpoint returns the freshest checkpoint document stored for
// a fingerprint (nil when none). Exposed for warm-starting similar
// problems and for tests asserting the failover contract.
func (c *Coordinator) LatestCheckpoint(fp string) json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckpts[fp]
}

// ---- health checking ----

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.healthPass()
		}
	}
}

// healthPass probes every member once, in name order (determinism of
// the probe sequence keeps logs and tests reproducible).
func (c *Coordinator) healthPass() {
	for _, name := range c.ring.members {
		m := c.members[name]
		st, err := c.probe(m)
		m.mu.Lock()
		if err != nil {
			m.fails++
			wasAlive := m.alive
			if m.fails >= c.cfg.FailAfter && m.alive {
				// A dead node has no queue to report.
				m.alive, m.ready, m.depth = false, false, 0
			}
			died := wasAlive && !m.alive
			fails := m.fails
			m.mu.Unlock()
			if died {
				c.met.nodeDeaths.Inc()
				c.log.Warn("node died", "node", name, "fails", fails, "error", err.Error())
				c.failoverNode(name)
			}
			continue
		}
		m.fails = 0
		m.alive = true
		m.ready = st.Ready
		m.depth = st.QueueDepth
		m.mu.Unlock()
	}
}

// probe fetches a node's readiness. A 503 with a parseable body is a
// healthy answer ("alive but busy/draining"), only transport failures
// count toward death.
func (c *Coordinator) probe(m *member) (service.ReadyStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/readyz", nil)
	if err != nil {
		return service.ReadyStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return service.ReadyStatus{}, err
	}
	defer resp.Body.Close()
	var st service.ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.ReadyStatus{}, err
	}
	return st, nil
}

// failoverNode re-maps every open job owned by a dead node: the job
// goes back to unassigned and its monitor re-dispatches it (to the next
// live member in ring order) from the freshest checkpoint.
func (c *Coordinator) failoverNode(name string) {
	c.mu.Lock()
	var hit []*cjob
	for _, j := range c.open {
		hit = append(hit, j) //ftlint:allow determinism re-dispatch order across independent jobs is immaterial
	}
	c.mu.Unlock()
	for _, j := range hit {
		j.mu.Lock()
		owned := j.node == name && !service.TerminalState(j.state)
		if owned {
			j.node, j.remoteID = "", ""
		}
		j.mu.Unlock()
		if owned {
			c.met.redispatches.Inc()
			c.log.Warn("failing over job", obs.TraceIDKey, j.traceID,
				"job", j.id, "from_node", name)
		}
	}
}

// ---- dispatch and monitoring ----

// pickNode selects the dispatch target for a fingerprint: the first
// live member in the ring's failover order — cache affinity, automatic
// re-mapping around dead nodes — unless that owner is hot (not ready,
// or backed up by more than stealMargin over the lightest ready
// member), in which case the lightest ready member steals the job.
func (c *Coordinator) pickNode(fp string) (m *member, stole bool) {
	order := c.ring.order(fp)
	var owner *member
	for _, name := range order {
		cand := c.members[name]
		if alive, _, _ := cand.snapshot(); alive {
			owner = cand
			break
		}
	}
	if owner == nil {
		return nil, false
	}
	_, ownerReady, ownerDepth := owner.snapshot()
	// The lightest ready member (by probe depth, ties in ring order).
	var lightest *member
	lightDepth := 0
	for _, name := range order {
		cand := c.members[name]
		if alive, ready, depth := cand.snapshot(); alive && ready {
			if lightest == nil || depth < lightDepth {
				lightest, lightDepth = cand, depth
			}
		}
	}
	switch {
	case ownerReady && (lightest == nil || ownerDepth-lightDepth <= stealMargin):
		return owner, false
	case lightest != nil && lightest != owner:
		return lightest, true
	default:
		return owner, false
	}
}

// spawnMonitor starts the goroutine that owns a job's remote lifecycle:
// dispatching (and re-dispatching after failover), polling status, and
// concluding. One monitor per job, so redispatch is single-flight by
// construction.
func (c *Coordinator) spawnMonitor(j *cjob) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.monitor(j)
	}()
}

func (c *Coordinator) monitor(j *cjob) {
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	for {
		j.mu.Lock()
		terminal := service.TerminalState(j.state)
		node, remoteID, canceled := j.node, j.remoteID, j.cancelReq
		j.mu.Unlock()
		if terminal {
			return
		}
		switch {
		case canceled && node == "":
			c.conclude(j, service.StateCanceled, nil, "canceled before dispatch")
			return
		case node == "":
			c.dispatch(j)
		default:
			c.poll(j, node, remoteID)
		}
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// dispatch sends the job to the picked node, carrying the freshest
// checkpoint as warm start so a resumed solve continues from the last
// incumbent.
func (c *Coordinator) dispatch(j *cjob) {
	j.mu.Lock()
	req, terminal := j.req, service.TerminalState(j.state)
	j.mu.Unlock()
	if terminal {
		return // concluded since the monitor looked
	}
	m, stole := c.pickNode(j.fp)
	if m == nil {
		return // no live node; the monitor retries next tick
	}
	req.TraceID = j.traceID
	warm := false
	if ck := c.LatestCheckpoint(j.fp); ck != nil {
		req.WarmStart = ck
		warm = true
		c.met.warmDispatches.Inc()
	}
	// The client's problem document is forwarded as it arrived.
	body, err := service.AppendRequest(nil, req, nil)
	if err != nil {
		c.conclude(j, service.StateFailed, nil, "encoding dispatch: "+err.Error())
		return
	}
	hreq, err := http.NewRequest(http.MethodPost, m.url+"/solve", bytes.NewReader(body))
	if err != nil {
		c.conclude(j, service.StateFailed, nil, "building dispatch: "+err.Error())
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, j.traceID)
	hreq.Header.Set(obs.NodeHeader, m.name)
	start := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return // transport failure; health loop judges the node, monitor retries
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Backpressure: mark the member un-ready immediately (the probe
		// would only notice next pass) and let the monitor re-pick.
		m.mu.Lock()
		m.ready = false
		m.mu.Unlock()
		return
	case resp.StatusCode == http.StatusServiceUnavailable:
		return // draining; the health pass will re-map
	case resp.StatusCode/100 != 2:
		var e service.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		c.conclude(j, service.StateFailed, nil, fmt.Sprintf("node %s rejected job: %s", m.name, e.Error))
		return
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	if stole {
		c.met.steals.Inc()
	}
	c.met.dispatches.Inc()
	c.met.byNode.With(m.name).Inc()
	j.mu.Lock()
	j.attempts++
	attempt := j.attempts
	j.node, j.remoteID = m.name, st.ID
	// A new remote job counts its improvements from zero.
	j.pulledImps, j.pulledAt = 0, time.Now()
	j.cached = st.Cached
	if !service.TerminalState(j.state) {
		j.state = service.StateRunning
	}
	// A cancel that arrived while this dispatch was in flight found no
	// node to forward to; forward it now, or the solve runs to its end.
	lateCancel := j.cancelReq && !service.TerminalState(st.State)
	j.mu.Unlock()
	if lateCancel {
		c.cancelRemote(context.Background(), m.name, st.ID)
	}
	if attempt == 1 {
		// Time from admission to the first node accepting the job — the
		// cluster-level analogue of the node's queue wait.
		c.met.queueWait.Observe(time.Since(j.submitted).Seconds())
	}
	c.log.Info("job dispatched", obs.TraceIDKey, j.traceID,
		"job", j.id, "node", m.name, "remote_id", st.ID, "attempt", attempt,
		"stolen", stole, "warm", warm,
		"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
	if service.TerminalState(st.State) {
		// Answered in place (result-cache hit on the node).
		c.met.cacheHits.Inc()
		c.conclude(j, st.State, st.Result, st.Error)
	}
}

// poll refreshes a dispatched job's state from its node, and pulls its
// checkpoint when the status reports improvements the last pull did
// not see and CheckpointInterval has passed since the dispatch or the
// last pull: an idle search adds no journal records. Losing the remote
// job (404 after a node restart) or its node re-maps the job; a remote
// cancellation the coordinator did not ask for (a draining node) does
// too — zero lost jobs is the contract.
func (c *Coordinator) poll(j *cjob, node, remoteID string) {
	m := c.members[node]
	if alive, _, _ := m.snapshot(); !alive {
		return // failoverNode already unassigned it (or is about to)
	}
	resp, err := c.hc.Get(m.url + "/jobs/" + remoteID)
	if err != nil {
		return // transport failure: the health loop decides the node's fate
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		c.unassign(j, node)
		return
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	j.mu.Lock()
	if j.node != node || j.remoteID != remoteID || service.TerminalState(j.state) {
		j.mu.Unlock()
		return // reassigned or concluded while the poll was in flight
	}
	j.improvements = st.Improvements
	canceled := j.cancelReq
	pull := st.Improvements > j.pulledImps && time.Since(j.pulledAt) >= c.cfg.CheckpointInterval
	j.mu.Unlock()
	if !service.TerminalState(st.State) {
		if pull {
			c.pull(j, m, remoteID, st.Improvements)
		}
		return
	}
	if st.State == service.StateCanceled && !canceled {
		// The node gave the job up (drain); keep the search alive
		// elsewhere from the last checkpoint.
		c.unassign(j, node)
		return
	}
	c.conclude(j, st.State, st.Result, st.Error)
}

// pull fetches a running remote job's checkpoint and keeps it under the
// coordinator's fingerprint for the job, which a node capping the time
// limit does not share. A failed pull is logged, counted and retried at
// the next poll.
func (c *Coordinator) pull(j *cjob, m *member, remoteID string, improvements int) {
	doc, err := c.fetchCheckpoint(m, remoteID)
	kept := false
	if err == nil {
		kept, err = c.keepCheckpoint(j.fp, doc)
	}
	if err != nil {
		c.met.ckptPullErrors.Inc()
		c.log.Warn("checkpoint pull failed", obs.TraceIDKey, j.traceID,
			"job", j.id, "node", m.name, "remote_id", remoteID, "error", err.Error())
		return
	}
	j.mu.Lock()
	if j.node == m.name && j.remoteID == remoteID {
		j.pulledImps, j.pulledAt = improvements, time.Now()
	}
	j.mu.Unlock()
	if kept {
		c.log.Info("checkpoint kept", obs.TraceIDKey, j.traceID,
			"job", j.id, "node", m.name, "remote_id", remoteID, "fingerprint", j.fp)
	}
}

// fetchCheckpoint GETs a remote job's checkpoint document.
func (c *Coordinator) fetchCheckpoint(m *member, remoteID string) ([]byte, error) {
	resp, err := c.hc.Get(m.url + "/jobs/" + remoteID + "/checkpoint")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("node answered %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// keepCheckpoint journals and stores doc as fp's checkpoint unless the
// stored one is better, so a cold re-solve racing a warm one cannot
// regress the incumbent a failover resumes from. A tie admits doc: a
// later checkpoint of the same fingerprint carries more elapsed search.
// Checkpoints are serialized from the comparison through the journal
// append to the store, and a failed append stores nothing.
func (c *Coordinator) keepCheckpoint(fp string, doc json.RawMessage) (bool, error) {
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(doc))
	if err != nil {
		return false, fmt.Errorf("checkpoint document: %w", err)
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	c.mu.Lock()
	stored, ok := c.ckpts[fp]
	c.mu.Unlock()
	if ok {
		if old, err := ftdse.ReadCheckpoint(bytes.NewReader(stored)); err == nil &&
			(cost{old.TardinessMs, old.MakespanMs}).less(cost{ck.TardinessMs, ck.MakespanMs}) {
			return false, nil
		}
	}
	if c.wal != nil {
		if err := c.wal.append(journalRecord{Type: recCheckpoint, Fingerprint: fp, Checkpoint: doc}); err != nil {
			return false, err
		}
	}
	c.mu.Lock()
	c.ckpts[fp] = doc
	c.mu.Unlock()
	c.met.ckptsReceived.Inc()
	return true, nil
}

// unassign drops a job's node binding so its monitor re-dispatches.
func (c *Coordinator) unassign(j *cjob, from string) {
	j.mu.Lock()
	if j.node == from {
		j.node, j.remoteID = "", ""
	}
	j.mu.Unlock()
	c.met.redispatches.Inc()
	c.log.Warn("job lost by node, re-dispatching", obs.TraceIDKey, j.traceID,
		"job", j.id, "node", from)
}

// conclude moves a job to a terminal state exactly once: journal first
// (a crash between the two re-runs an already-finished solve, which
// coalescing and the result cache absorb), then in-memory state.
func (c *Coordinator) conclude(j *cjob, state string, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if service.TerminalState(j.state) {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if c.wal != nil {
		if err := c.wal.append(journalRecord{Type: recDone, ID: j.id, Fingerprint: j.fp,
			TraceID: j.traceID, State: state, Result: result}); err != nil {
			// The job still concludes; a restarted coordinator runs it
			// again, and the node's result cache absorbs that.
			c.log.Warn("journaling job conclusion failed", obs.TraceIDKey, j.traceID,
				"job", j.id, "state", state, "error", err.Error())
		}
	}
	// The job leaves the coalescing index in the critical section that
	// makes it terminal, so a submission admitted after a waiter wakes
	// starts a new job (answered from the node's cache) instead of
	// coalescing onto this one. Lock order: c.mu before j.mu.
	c.mu.Lock()
	if c.open[j.fp] == j {
		delete(c.open, j.fp)
	}
	j.mu.Lock()
	j.state = state
	j.result = result
	j.errMsg = errMsg
	// Only dispatch reads the request, and never for a terminal job;
	// retained terminal jobs (see service.Retire) keep their result
	// only. Journal replay reads the journal, not this field.
	j.req = service.SubmitRequest{}
	close(j.done)
	j.mu.Unlock()
	c.retired = service.Retire(c.jobs, c.retired, j.id)
	c.mu.Unlock()
	c.met.jobDuration.Observe(time.Since(j.submitted).Seconds())
	switch state {
	case service.StateDone:
		c.met.completed.Inc()
	case service.StateFailed:
		c.met.failed.Inc()
	case service.StateCanceled:
		c.met.canceled.Inc()
	}
	c.log.Info("job concluded", obs.TraceIDKey, j.traceID,
		"job", j.id, "state", state, "error", errMsg)
}

// status snapshots a job's public view in the service wire shape, so
// the ftdsed client works unchanged against the coordinator.
func (j *cjob) status() service.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return service.JobStatus{
		ID:           j.id,
		State:        j.state,
		Fingerprint:  j.fp,
		TraceID:      j.traceID,
		Cached:       j.cached,
		Improvements: j.improvements,
		SubmittedAt:  j.submitted,
		Error:        j.errMsg,
		Result:       j.result,
	}
}

// ---- metrics ----

// coordMetrics aggregates the coordinator's counters on an obs.Registry
// (one per coordinator, nothing process-global), rendered by GET
// /metrics in the Prometheus text format under ftcluster_* names.
type coordMetrics struct {
	reg *obs.Registry

	submitted      *obs.Counter
	coalesced      *obs.Counter
	rejected       *obs.Counter
	dispatches     *obs.Counter
	byNode         *obs.CounterVec // dispatches per node name
	redispatches   *obs.Counter
	steals         *obs.Counter
	cacheHits      *obs.Counter
	warmDispatches *obs.Counter
	completed      *obs.Counter
	failed         *obs.Counter
	canceled       *obs.Counter
	ckptsReceived  *obs.Counter
	ckptPullErrors *obs.Counter
	nodeDeaths     *obs.Counter
	queueWait      *obs.Histogram // admission → first successful dispatch
	jobDuration    *obs.Histogram // admission → terminal state
}

func newCoordMetrics(c *Coordinator) *coordMetrics {
	r := obs.NewRegistry()
	buckets := obs.ExponentialBuckets(0.001, 2, 21)
	m := &coordMetrics{
		reg:            r,
		submitted:      r.NewCounter("ftcluster_jobs_submitted_total", "Jobs admitted by the coordinator."),
		coalesced:      r.NewCounter("ftcluster_jobs_coalesced_total", "Submissions coalesced onto an open job with the same fingerprint."),
		rejected:       r.NewCounter("ftcluster_jobs_rejected_total", "Submissions rejected by the admission cap (429)."),
		dispatches:     r.NewCounter("ftcluster_dispatches_total", "Successful job dispatches to nodes."),
		byNode:         r.NewCounterVec("ftcluster_dispatches_by_node_total", "Successful job dispatches per node.", "node"),
		redispatches:   r.NewCounter("ftcluster_redispatches_total", "Jobs re-dispatched after failover, drain, or restart."),
		steals:         r.NewCounter("ftcluster_steals_total", "Dispatches stolen from a busy shard owner by a lighter node."),
		cacheHits:      r.NewCounter("ftcluster_node_cache_hits_total", "Dispatches answered terminally in place by a node's result cache."),
		warmDispatches: r.NewCounter("ftcluster_warm_dispatches_total", "Dispatches seeded with a stored checkpoint."),
		completed:      r.NewCounter("ftcluster_jobs_completed_total", "Jobs that reached the done state."),
		failed:         r.NewCounter("ftcluster_jobs_failed_total", "Jobs that reached the failed state."),
		canceled:       r.NewCounter("ftcluster_jobs_canceled_total", "Jobs that reached the canceled state."),
		ckptsReceived:  r.NewCounter("ftcluster_checkpoints_received_total", "Checkpoint documents pulled from nodes and kept."),
		ckptPullErrors: r.NewCounter("ftcluster_checkpoint_pull_errors_total", "Checkpoint pulls that failed."),
		nodeDeaths:     r.NewCounter("ftcluster_node_deaths_total", "Nodes declared dead after consecutive probe failures."),
		queueWait: r.NewHistogram("ftcluster_queue_wait_seconds",
			"Time from job admission to the first node accepting it.", buckets),
		jobDuration: r.NewHistogram("ftcluster_job_duration_seconds",
			"Time from job admission to its terminal state.", buckets),
	}
	r.NewGaugeFunc("ftcluster_open_jobs", "Admitted jobs not yet terminal.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.open))
		})
	r.NewGaugeFunc("ftcluster_nodes_alive", "Members currently passing health probes.",
		func() float64 { return float64(c.aliveNodes()) })
	return m
}

// aliveNodes counts members currently considered reachable.
func (c *Coordinator) aliveNodes() int {
	n := 0
	for _, name := range c.ring.members {
		if alive, _, _ := c.members[name].snapshot(); alive {
			n++
		}
	}
	return n
}

// ShardStat is one node's row in the shard map report.
type ShardStat struct {
	Node       string `json:"node"`
	URL        string `json:"url"`
	Alive      bool   `json:"alive"`
	Ready      bool   `json:"ready"`
	QueueDepth int    `json:"queue_depth"`
	// OpenJobs counts this coordinator's non-terminal jobs currently
	// assigned to the node.
	OpenJobs int `json:"open_jobs"`
}

// shardStats renders the current shard map, sorted by node name (the
// ring's member order).
func (c *Coordinator) shardStats() []ShardStat {
	owned := make(map[string]int)
	c.mu.Lock()
	for _, j := range c.open {
		j.mu.Lock()
		if j.node != "" {
			owned[j.node]++
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	out := make([]ShardStat, 0, len(c.ring.members))
	for _, name := range c.ring.members {
		m := c.members[name]
		alive, ready, depth := m.snapshot()
		out = append(out, ShardStat{
			Node: name, URL: m.url,
			Alive: alive, Ready: ready, QueueDepth: depth,
			OpenJobs: owned[name],
		})
	}
	return out
}
