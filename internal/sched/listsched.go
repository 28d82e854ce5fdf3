package sched

import (
	"fmt"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// Build runs the list scheduler (Section 5.1 of the paper) and returns
// the synthesized schedule with its worst-case analysis. The caller owns
// the policy assignment; Build never mutates the input. The schedule
// owns its storage (a scratch of its own) and may be retained.
func Build(in Input) (*Schedule, error) { return BuildInto(&Scratch{labels: true}, in) }

// BuildInto is Build into a reusable arena: with a warm scratch the
// construction allocates nothing, reusing the scratch's buffers for the
// expansion, items, analysis rows and bus. The untimed analysis results
// are bit-identical to Build's — the arena only changes where the bytes
// live — except that bus transmissions carry empty display labels
// (cost-only callers never read them; keepers are rebuilt with Build).
//
// The returned Schedule is owned by the scratch and valid only until
// the next BuildInto with the same scratch; see Scratch.
//
//ftdse:hotpath
func BuildInto(sc *Scratch, in Input) (*Schedule, error) {
	st := in.Static
	if st == nil {
		if err := in.Validate(); err != nil {
			return nil, err
		}
		var err error
		st, err = NewStatic(in)
		if err != nil {
			return nil, err
		}
	}
	ex, err := sc.exp.Expand(in.Graph, in.Assignment, in.WCET)
	if err != nil {
		return nil, err
	}
	b := sc.prepare(in, ex, st)
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.s, nil
}

// builder is the state of one schedule construction. Its buffers live in
// a Scratch and are sized by Scratch.prepare before every build, so the
// construction itself only writes into them.
type builder struct {
	s         *Schedule
	adj       *model.Adjacency
	prio      []model.Time    // by ProcID
	timelines []*nodeTimeline // by NodeID
	labels    bool            // format transmission display labels

	items   []Item       // item values, by InstID
	rows    []model.Time // survRow backing: NumInstances × (k+1)
	msgs    []Broadcast  // Item.Msgs backing, handed out in placement order
	nextMsg int

	indeg  []int            // by ProcID
	ready  []model.ProcID   // one entry per process
	gr     []model.Time     // k+1
	remote []candidate      // one entry per replica of a process
	compl  []completionCand // one entry per replica of a process
}

// itemFor returns the emptied Item of an instance, with room for one
// broadcast per outgoing edge of its process.
//
//ftdse:hotpath
func (b *builder) itemFor(id policy.InstID, outEdges int) *Item {
	it := &b.items[id]
	*it = Item{Msgs: b.msgs[b.nextMsg : b.nextMsg : b.nextMsg+outEdges]}
	b.nextMsg += outEdges
	return it
}

// rowFor returns the survRow backing of an instance (len k+1).
//
//ftdse:hotpath
func (b *builder) rowFor(id policy.InstID, k int) []model.Time {
	i := int(id) * (k + 1)
	return b.rows[i : i+k+1 : i+k+1]
}

// run drives the ready-list loop: in every iteration the ready process
// with the highest partial-critical-path priority is extracted and all
// its replica instances are placed; its outbound broadcast messages are
// then reserved on the bus at the transparent (worst-case surviving)
// send times.
//
//ftdse:hotpath
func (b *builder) run() error {
	g := b.s.In.Graph
	adj, prio, indeg, ready := b.adj, b.prio, b.indeg, b.ready

	nready := 0
	for _, p := range g.Processes() {
		indeg[p.ID] = len(adj.Predecessors(p.ID))
		if indeg[p.ID] == 0 {
			ready[nready] = p.ID
			nready++
		}
	}
	scheduled := 0
	for nready > 0 {
		// Extract the highest-priority ready process (ties: smaller ID).
		// The order is total, so the list's own order is irrelevant and
		// extraction swaps the last entry into the hole.
		best := 0
		for i := 1; i < nready; i++ {
			pi, pb := prio[ready[i]], prio[ready[best]]
			if pi > pb || (pi == pb && ready[i] < ready[best]) {
				best = i
			}
		}
		id := ready[best]
		nready--
		ready[best] = ready[nready]

		if err := b.placeProcess(adj.Process(id)); err != nil {
			return err
		}
		scheduled++

		// Every process enters the list once, so it never overflows.
		for _, e := range adj.Successors(id) {
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				ready[nready] = e.Dst
				nready++
			}
		}
	}
	if scheduled != g.NumProcesses() {
		return fmt.Errorf("sched: scheduled %d of %d processes (cycle?)", scheduled, g.NumProcesses())
	}
	b.finalize()
	return nil
}

// placeProcess places every replica instance of p, runs the per-process
// completion analysis, and reserves the broadcast messages of p.
//
//ftdse:hotpath
func (b *builder) placeProcess(p *model.Process) error {
	in := b.s.In
	ex := b.s.Ex
	k := in.Faults.K
	reps := ex.Of(p.ID)
	succs := b.adj.Successors(p.ID)

	for _, inst := range reps {
		gr, nr, bindOn, bindKind, err := b.readiness(p, inst)
		if err != nil {
			return err
		}
		nt := b.timelines[inst.Node]
		pl := nt.placeRow(inst.ID, gr, nr,
			inst.ExecTime(in.Faults.Chi), inst.RecoverTime(in.Faults.Mu), inst.Reexec,
			b.rowFor(inst.ID, k))
		item := b.itemFor(inst.ID, len(succs))
		item.Inst = inst
		item.NominalStart = pl.nominalStart
		item.NominalFinish = pl.nominalFinish
		item.GuaranteedReady = gr[k]
		item.WCFinish = pl.wcFinish
		item.SendReady = pl.sendReady
		item.Bind = bindKind
		item.BindOn = bindOn
		item.wcRow = pl.survRow
		if pl.boundByPrev {
			item.Bind = BindPrevOnNode
			item.BindOn = pl.prevInst
		}
		b.s.items[inst.ID] = item
		// prepare sized each node's table for all of its instances.
		seq := b.s.nodeSeq[inst.Node]
		item.NodePos = len(seq)
		seq = seq[:len(seq)+1]
		seq[item.NodePos] = item
		b.s.nodeSeq[inst.Node] = seq
	}

	// Per-process worst-case completion: the adversarial first-valid
	// completion over the replicas of p.
	cands := b.compl[:len(reps)]
	nominal := model.Infinity
	for i, inst := range reps {
		it := b.s.items[inst.ID]
		cands[i] = completionCand{row: it.wcRow, cost: inst.Reexec + 1, inst: inst.ID}
		nominal = model.MinTime(nominal, it.NominalFinish)
	}
	done, bindOn, ok := guaranteedCompletion(cands, k)
	if !ok {
		return fmt.Errorf("sched: policy of process %s does not tolerate %d faults", p, k)
	}
	b.s.procDone[p.ID] = procResult{
		guaranteed: done,
		nominal:    nominal,
		bindOn:     bindOn,
		deadline:   p.Deadline,
		placed:     true,
	}

	// Broadcast messages: one transmission per (sender instance,
	// outgoing edge) pair that has at least one remote receiver. The
	// send slot starts at or after the sender's worst-case surviving
	// completion, which makes faults of the sender's node invisible to
	// the receivers (transparent re-execution, Figure 4a).
	for _, e := range succs {
		receivers := ex.Of(e.Dst)
		for _, sender := range reps {
			remote := false
			for _, r := range receivers {
				if r.Node != sender.Node {
					remote = true
					break
				}
			}
			if !remote {
				continue
			}
			it := b.s.items[sender.ID]
			var label string
			if b.labels {
				// Labels are display-only; cost-only scratch builds skip
				// the formatting (an allocation per message).
				label = fmt.Sprintf("m%d:%s", e.Index, sender.Name()) //ftlint:allow hotpath display labels are formatted by Build only (scratch builds leave labels off)
			}
			tr, err := b.s.bus.Reserve(sender.Node, it.SendReady, e.Bytes, label)
			if err != nil {
				return err
			}
			// itemFor left room for one message per outgoing edge.
			it.Msgs = it.Msgs[:len(it.Msgs)+1]
			it.Msgs[len(it.Msgs)-1] = Broadcast{Edge: e.Index, Transmission: tr}
		}
	}
	return nil
}

// readiness computes the guaranteed (worst-case) and nominal input-ready
// times of one replica instance, together with the binding constraint of
// the guaranteed time.
//
// Per incoming edge, the predecessor has at most one replica on the
// instance's own node (replicas live on distinct nodes) plus remote
// replicas delivering over the bus. When the local replica survives, its
// output is available the moment it finishes, which the per-node
// timeline DP already accounts for — it must NOT additionally constrain
// the guaranteed ready time, or the shared re-execution slack of [11]
// would be double-counted (Figure 3b2). Only two things constrain gr:
//
//   - edges with no local replica: the adversarial first-valid arrival
//     over the remote broadcasts (fixed MEDL times), and
//   - edges whose local replica the adversary can kill (kill cost ≤ k):
//     the first-valid arrival over the remote broadcasts with the
//     remaining budget — this is exactly the contingency start of
//     Figure 7 (P3 waits for m2 from the replica of P2).
//
//ftdse:hotpath
func (b *builder) readiness(p *model.Process, inst *policy.Instance) (gr []model.Time, nr model.Time, bindOn policy.InstID, bindKind BindKind, err error) {
	in := b.s.In
	ex := b.s.Ex
	k := in.Faults.K

	gr = b.gr
	for f := range gr {
		gr[f] = p.Release
	}
	nr = p.Release
	bindOn, bindKind = NoInst, BindRelease

	for _, e := range b.adj.Predecessors(p.ID) {
		remotes := b.remote
		nremote := 0
		localCost := -1 // kill cost of the local replica, -1 when absent
		nomBest := model.Infinity
		for _, src := range ex.Of(e.Src) {
			it := b.s.items[src.ID]
			if it == nil {
				return nil, 0, NoInst, BindRelease,
					fmt.Errorf("sched: predecessor %s placed after successor %s", src, inst)
			}
			if src.Node == inst.Node {
				localCost = src.Reexec + 1
				nomBest = model.MinTime(nomBest, it.NominalFinish)
				continue
			}
			tr, ok := it.Msg(e.Index)
			if !ok {
				return nil, 0, NoInst, BindRelease,
					fmt.Errorf("sched: missing broadcast of %s for edge %v", src, e)
			}
			remotes[nremote] = candidate{avail: tr.Arrival, killCost: src.Reexec + 1, inst: src.ID}
			nremote++
			nomBest = model.MinTime(nomBest, tr.Arrival)
		}
		remotes = remotes[:nremote]
		nr = model.MaxTime(nr, nomBest)

		// gr[f]: the worst-case first-valid arrival when the adversary
		// may spend at most f faults on this edge's deliveries. A
		// surviving local replica is subsumed by the node timeline (it
		// finishes before the node is free again), so the edge only
		// constrains gr in scenarios where the local replica is killed —
		// or always, when there is no local replica.
		for f := 0; f <= k; f++ {
			budget := f
			if localCost >= 0 {
				if localCost > f {
					continue // local replica survives under f faults
				}
				budget = f - localCost
			}
			t, first, ok := guaranteedFirstValid(remotes, budget)
			if !ok {
				return nil, 0, NoInst, BindRelease,
					fmt.Errorf("sched: inputs of %s over edge %v not guaranteed under %d faults", inst, e, f)
			}
			if t > gr[f] {
				gr[f] = t
				if f == k {
					bindOn, bindKind = first, BindInput
				}
			}
		}
	}
	return gr, nr, bindOn, bindKind, nil
}

// finalize computes makespan, tardiness and the worst process.
//
//ftdse:hotpath
func (b *builder) finalize() {
	s := b.s
	var worstViol model.Time = -1
	var worstViolProc model.ProcID
	var lastProc model.ProcID
	var last model.Time = -1
	for _, p := range s.In.Graph.Processes() {
		r := s.procDone[p.ID]
		if r.guaranteed > s.Makespan {
			s.Makespan = r.guaranteed
		}
		if r.guaranteed > last {
			last, lastProc = r.guaranteed, p.ID
		}
		if r.deadline > 0 && r.guaranteed > r.deadline {
			v := r.guaranteed - r.deadline
			s.Tardiness += v
			if v > worstViol {
				worstViol, worstViolProc = v, p.ID
			}
		}
	}
	if worstViol >= 0 {
		s.worstProc = worstViolProc
	} else {
		s.worstProc = lastProc
	}
}
