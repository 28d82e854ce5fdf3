package sched

import (
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// Scratch holds every buffer a Build call needs, so repeated schedule
// constructions over the same static context — the optimizer costs
// thousands of candidate assignments per search — reuse one arena
// instead of allocating a schedule's worth of garbage per candidate.
//
// Ownership contract: the Schedule returned by BuildInto, and everything
// reachable from it (items, analysis rows, the expansion, the bus), is
// owned by the scratch and valid only until the next BuildInto with the
// same scratch. Callers extract what they need (costs: Makespan,
// Tardiness) before reusing the scratch, and rebuild keepers with the
// allocating Build. A Scratch is confined to one goroutine; concurrent
// builders take one scratch each.
type Scratch struct {
	exp policy.ExpandScratch

	sched  Schedule
	b      builder
	labels bool // format transmission labels (set by Build)

	itemPtrs  []*Item         // Schedule.items backing, by InstID
	seq       []*Item         // Schedule.nodeSeq backing, one region per node
	nodeSeq   [][]*Item       // by NodeID
	perNode   []int           // instance count by NodeID
	procDone  []procResult    // by ProcID
	timelines []*nodeTimeline // by NodeID, reset per build
	bus       *ttp.Bus
}

// NewScratch returns an empty scratch; buffers grow on first use and
// stabilize after one build of the largest assignment shape.
func NewScratch() *Scratch { return &Scratch{} }

// resize returns buf with length n, reallocating only when its capacity
// falls short. The contents are stale; callers overwrite or clear them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// prepare resets the arena for one build and assembles the builder over
// it. Every buffer is sized here for the whole build, so placement only
// ever writes into existing storage; each is either fully overwritten
// during the build (item values, analysis rows, candidate buffers) or
// emptied here, which is what keeps scratch builds bit-identical to
// fresh ones.
func (sc *Scratch) prepare(in Input, ex *policy.Expansion, st *Static) *builder {
	k := in.Faults.K
	n := ex.NumInstances()
	g := in.Graph
	b := &sc.b

	b.items = resize(b.items, n)
	b.rows = resize(b.rows, n*(k+1))
	sc.itemPtrs = resize(sc.itemPtrs, n)
	clear(sc.itemPtrs) // readiness() detects ordering bugs by nil

	// Per-process bounds: every replica may broadcast once per outgoing
	// edge, and the candidate buffers hold one entry per replica.
	msgs, maxReps := 0, 0
	for _, p := range g.Processes() {
		reps := len(ex.Of(p.ID))
		msgs += reps * len(st.adj.Successors(p.ID))
		maxReps = max(maxReps, reps)
	}
	b.msgs = resize(b.msgs, msgs)
	b.nextMsg = 0
	b.remote = resize(b.remote, maxReps)
	b.compl = resize(b.compl, maxReps)
	b.gr = resize(b.gr, k+1)
	sc.procDone = resize(sc.procDone, st.adj.NumIDs())
	clear(sc.procDone)

	// Node tables: node i gets an empty region of seq with room for
	// all of its instances.
	nodes := in.Arch.NumNodes()
	sc.perNode = resize(sc.perNode, nodes)
	clear(sc.perNode)
	for _, inst := range ex.Instances {
		sc.perNode[inst.Node]++
	}
	sc.seq = resize(sc.seq, n)
	sc.nodeSeq = resize(sc.nodeSeq, nodes)
	off := 0
	for i, c := range sc.perNode {
		sc.nodeSeq[i] = sc.seq[off : off : off+c]
		off += c
	}

	sc.timelines = resize(sc.timelines, nodes)
	for _, nd := range in.Arch.Nodes() {
		if tl := sc.timelines[nd.ID]; tl == nil || tl.k != k {
			sc.timelines[nd.ID] = newNodeTimeline(k, in.Faults.Mu, in.Options.SlackSharing)
		} else {
			tl.reset(in.Faults.Mu, in.Options.SlackSharing)
		}
	}
	if sc.bus == nil {
		sc.bus = ttp.NewBus(in.Bus)
	} else {
		sc.bus.Reset(in.Bus)
	}

	sc.sched = Schedule{
		In:       in,
		Ex:       ex,
		items:    sc.itemPtrs,
		nodeSeq:  sc.nodeSeq,
		bus:      sc.bus,
		procDone: sc.procDone,
	}
	b.s = &sc.sched
	b.adj = st.adj
	b.order = st.order
	b.timelines = sc.timelines
	b.labels = sc.labels
	return b
}
