// Package rt is a discrete-event implementation of the runtime described
// in the paper's Section 2.2: a real-time kernel per node dispatching
// processes from the static schedule table, and TTP controllers
// transmitting frames in their MEDL slots. It executes a synthesized
// schedule under a concrete fault scenario with an event queue over the
// global TDMA time line.
//
// The package deliberately duplicates the semantics of package sim with
// a completely different mechanism (event-driven kernels and controllers
// instead of a dependency-ordered sweep): the two implementations are
// cross-validated against each other in the tests, which protects the
// load-bearing runtime rules — contingency delaying, first-valid replica
// inputs, frame validity at slot start — against implementation bugs in
// either simulator.
package rt

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/sim"
)

// Result mirrors sim.Result for cross-validation.
type Result struct {
	Finish     map[policy.InstID]model.Time
	Alive      map[policy.InstID]bool
	ProcDone   map[model.ProcID]model.Time
	Violations []string
	Makespan   model.Time
}

// OK reports whether the cycle completed without violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// event is one entry of the global event queue. Same-instant events are
// ordered by phase so the runtime matches the reference simulator's
// semantics exactly: instance completions commit first, then the TTP
// controllers build their frames (a sender finishing exactly at the slot
// start still makes the frame), then payloads are delivered, then the
// kernels re-evaluate dispatching.
type event struct {
	at    model.Time
	phase int
	seq   int // deterministic tie-breaking
	fn    func()
}

// event phases at one instant.
const (
	phaseComplete = iota
	phaseFrame
	phaseDeliver
	phaseDispatch
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].phase != h[j].phase {
		return h[i].phase < h[j].phase
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// delivery tracks one potential input source of (instance, edge).
type delivery struct {
	valid    bool
	resolved bool // true once known valid or known dead/invalid
	at       model.Time
}

// engine executes one cycle.
type engine struct {
	s  *sched.Schedule
	sc sim.Scenario

	pq  eventHeap
	seq int
	now model.Time

	// kernel state per node
	head     map[arch.NodeID]int // next position in the node table
	nodeFree map[arch.NodeID]model.Time
	running  map[arch.NodeID]bool

	// instance state
	finish map[policy.InstID]model.Time
	alive  map[policy.InstID]bool
	done   map[policy.InstID]bool

	// input bookkeeping: per (receiver instance, edge index, source
	// instance) one delivery record.
	inputs map[policy.InstID]map[int]map[policy.InstID]*delivery

	res *Result
}

// Run executes the schedule under the scenario with the event-driven
// kernel/controller machinery.
func Run(s *sched.Schedule, sc sim.Scenario) *Result {
	e := &engine{
		s:        s,
		sc:       sc,
		head:     make(map[arch.NodeID]int),
		nodeFree: make(map[arch.NodeID]model.Time),
		running:  make(map[arch.NodeID]bool),
		finish:   make(map[policy.InstID]model.Time),
		alive:    make(map[policy.InstID]bool),
		done:     make(map[policy.InstID]bool),
		inputs:   make(map[policy.InstID]map[int]map[policy.InstID]*delivery),
		res: &Result{
			Finish:   make(map[policy.InstID]model.Time),
			Alive:    make(map[policy.InstID]bool),
			ProcDone: make(map[model.ProcID]model.Time),
		},
	}
	e.setupInputs()
	e.scheduleTransmissions()

	// Kick every kernel at time zero and at each instance's table time.
	for _, n := range s.In.Arch.Nodes() {
		node := n.ID
		e.post(0, phaseDispatch, func() { e.tryDispatch(node) })
		for _, it := range s.NodeSequence(node) {
			at := it.NominalStart
			e.post(at, phaseDispatch, func() { e.tryDispatch(node) })
		}
	}
	e.drain()
	e.finalize()
	return e.res
}

// setupInputs builds the delivery matrix: for every instance, per
// incoming edge, one record per source (the local replica of the
// predecessor, and each remote replica's broadcast).
func (e *engine) setupInputs() {
	g := e.s.In.Graph
	for _, it := range e.s.Items() {
		recv := it.Inst
		m := make(map[int]map[policy.InstID]*delivery)
		for _, ed := range g.Predecessors(recv.Proc.ID) {
			idx := ed.Index
			srcs := make(map[policy.InstID]*delivery)
			for _, src := range e.s.Ex.Of(ed.Src) {
				if src.Node == recv.Node {
					srcs[src.ID] = &delivery{}
					continue
				}
				if _, ok := e.s.Item(src.ID).Msg(idx); ok {
					srcs[src.ID] = &delivery{}
				}
				// Remote replicas without a broadcast cannot deliver
				// here (they only had local receivers elsewhere); they
				// are not potential sources.
			}
			m[idx] = srcs
		}
		e.inputs[recv.ID] = m
	}
}

// scheduleTransmissions posts the TTP controller events: at each slot
// start the frame is built (valid only if the producer has finished),
// and at the slot end the payload reaches every receiver.
func (e *engine) scheduleTransmissions() {
	for _, it := range e.s.Items() {
		sender := it.Inst
		// Msgs is in edge order, which keeps the event queue's
		// insertion-sequence tie breaking deterministic.
		for _, m := range it.Msgs {
			idx, tr := m.Edge, m.Transmission
			e.post(tr.Start, phaseFrame, func() {
				valid := e.done[sender.ID] && e.alive[sender.ID] && e.finish[sender.ID] <= e.now
				at := tr.Arrival
				e.post(at, phaseDeliver, func() { e.deliver(idx, sender.ID, valid, at) })
			})
		}
	}
}

// deliver resolves the (edge, source) record of every REMOTE receiver
// of the broadcast and re-triggers the kernels. Same-node receivers
// consume the sender's local output (resolved at its completion), never
// the bus frame — their records must not be touched here.
func (e *engine) deliver(edgeIdx int, src policy.InstID, valid bool, at model.Time) {
	edge := e.s.In.Graph.Edges()[edgeIdx]
	senderNode := e.s.Item(src).Inst.Node
	for _, recv := range e.s.Ex.Of(edge.Dst) {
		if recv.Node == senderNode {
			continue
		}
		srcs := e.inputs[recv.ID][edgeIdx]
		d, ok := srcs[src]
		if !ok || d.resolved {
			continue
		}
		d.resolved = true
		d.valid = valid
		d.at = at
		e.post(at, phaseDispatch, func() { e.tryDispatch(recv.Node) })
	}
}

// resolveLocal marks the local-output record of a completed (or dead)
// instance for its same-node receivers.
func (e *engine) resolveLocal(src *policy.Instance, valid bool, at model.Time) {
	g := e.s.In.Graph
	for _, ed := range g.Successors(src.Proc.ID) {
		idx := ed.Index
		for _, recv := range e.s.Ex.Of(ed.Dst) {
			if recv.Node != src.Node {
				continue
			}
			d, ok := e.inputs[recv.ID][idx][src.ID]
			if !ok || d.resolved {
				continue
			}
			d.resolved = true
			d.valid = valid
			d.at = at
		}
	}
}

// inputState classifies the head instance's inputs: ready when every
// edge has a valid delivery (returning the latest first-valid time),
// starved when some edge can never deliver, waiting otherwise.
type inputState int

const (
	inputsReady inputState = iota
	inputsWaiting
	inputsStarved
)

func (e *engine) inputStatus(inst *policy.Instance) (inputState, model.Time) {
	ready := inst.Proc.Release
	// Classify edges in index order: an instance with one waiting and
	// one starved edge must report the same state on every run.
	edges := make([]int, 0, len(e.inputs[inst.ID]))
	for idx := range e.inputs[inst.ID] {
		edges = append(edges, idx)
	}
	sort.Ints(edges)
	for _, idx := range edges {
		srcs := e.inputs[inst.ID][idx]
		firstValid := model.Infinity
		pending := false
		for _, d := range srcs {
			if !d.resolved {
				pending = true
				continue
			}
			if d.valid {
				firstValid = model.MinTime(firstValid, d.at) //ftlint:allow determinism min over a delivery set is commutative
			}
		}
		switch {
		case firstValid < model.Infinity:
			ready = model.MaxTime(ready, firstValid)
		case pending:
			return inputsWaiting, 0
		default:
			return inputsStarved, 0
		}
	}
	return inputsReady, ready
}

// tryDispatch is the kernel loop of one node: while the head instance of
// the table is dispatchable, run it.
func (e *engine) tryDispatch(node arch.NodeID) {
	if e.running[node] {
		return
	}
	seq := e.s.NodeSequence(node)
	for e.head[node] < len(seq) {
		it := seq[e.head[node]]
		inst := it.Inst
		state, ready := e.inputStatus(inst)
		if state == inputsWaiting {
			return
		}
		if state == inputsStarved {
			// The instance can never run in this scenario: it looks
			// dead to everyone downstream; the node moves on.
			e.head[node]++
			e.done[inst.ID] = true
			e.alive[inst.ID] = false
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("instance %s starved: no valid input in this scenario", inst))
			e.resolveLocal(inst, false, e.now)
			continue
		}
		start := model.MaxTime(model.MaxTime(ready, it.NominalStart), e.nodeFree[node])
		if start > e.now {
			e.post(start, phaseDispatch, func() { e.tryDispatch(node) })
			return
		}
		// Dispatch now.
		faults := e.sc[inst.ID]
		exec := inst.ExecTime(e.s.In.Faults.Chi)
		recover := inst.RecoverTime(e.s.In.Faults.Mu)
		e.running[node] = true
		e.head[node]++
		if faults <= inst.Reexec {
			fin := start + exec + model.Time(faults)*recover
			e.post(fin, phaseComplete, func() {
				e.running[node] = false
				e.nodeFree[node] = fin
				e.done[inst.ID] = true
				e.alive[inst.ID] = true
				e.finish[inst.ID] = fin
				e.resolveLocal(inst, true, fin)
				e.tryDispatch(node)
			})
		} else {
			busyUntil := start + exec + model.Time(inst.Reexec)*recover + e.s.In.Faults.Mu
			e.post(busyUntil, phaseComplete, func() {
				e.running[node] = false
				e.nodeFree[node] = busyUntil
				e.done[inst.ID] = true
				e.alive[inst.ID] = false
				e.resolveLocal(inst, false, busyUntil)
				e.tryDispatch(node)
			})
		}
		return
	}
}

func (e *engine) post(at model.Time, phase int, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.pq, &event{at: at, phase: phase, seq: e.seq, fn: fn})
}

func (e *engine) drain() {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		ev.fn()
	}
}

func (e *engine) finalize() {
	for id, fin := range e.finish {
		e.res.Finish[id] = fin
	}
	for _, it := range e.s.Items() {
		e.res.Alive[it.Inst.ID] = e.alive[it.Inst.ID]
	}
	for _, p := range e.s.In.Graph.Processes() {
		first := model.Infinity
		for _, inst := range e.s.Ex.Of(p.ID) {
			if e.alive[inst.ID] {
				first = model.MinTime(first, e.finish[inst.ID])
			}
		}
		if first == model.Infinity {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("process %s: all replicas failed", p))
			continue
		}
		e.res.ProcDone[p.ID] = first
		if first > e.res.Makespan {
			e.res.Makespan = first
		}
		if p.Deadline > 0 && first > p.Deadline {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("process %s finished at %v, deadline %v", p, first, p.Deadline))
		}
	}
}
