package sched

import (
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// candidate is one source that can deliver a datum at a fixed time (a
// replica's broadcast message in the MEDL). killCost is the number of
// faults an adversary must spend to prevent the delivery entirely: the
// replica's re-executions plus one (see the transparency rule in
// placed.sendReady for why delaying the message past its slot costs the
// same as killing the replica).
type candidate struct {
	avail    model.Time
	killCost int
	inst     policy.InstID
}

// sortCandidates orders candidates by (avail, inst) with an in-place
// insertion sort; candidate sets are tiny (one per replica).
func sortCandidates(c []candidate) {
	for i := 1; i < len(c); i++ {
		x := c[i]
		j := i - 1
		for j >= 0 && (c[j].avail > x.avail || (c[j].avail == x.avail && c[j].inst > x.inst)) {
			c[j+1] = c[j]
			j--
		}
		c[j+1] = x
	}
}

// guaranteedFirstValid returns the worst-case time at which at least one
// of the candidates has certainly delivered, over every adversarial
// distribution of at most budget faults, together with the candidate
// realizing it (the first survivor). The slice is reordered in place.
//
// The adversary maximizes the first valid delivery. Since the earliest
// surviving candidate determines it, the optimal attack kills a prefix
// of the candidates ordered by delivery time; killing anything after the
// first survivor is wasted. The function therefore sorts candidates by
// availability and kills greedily while the budget allows. ok is false
// when the whole candidate set can be killed within the budget, i.e. the
// policy does not tolerate the fault hypothesis.
func guaranteedFirstValid(cands []candidate, budget int) (t model.Time, first policy.InstID, ok bool) {
	if len(cands) == 0 {
		return 0, NoInst, false
	}
	sortCandidates(cands)
	for _, c := range cands {
		if c.killCost > budget {
			return c.avail, c.inst, true
		}
		budget -= c.killCost
	}
	return 0, NoInst, false
}

// completionCand describes one replica of a process for the worst-case
// completion analysis: its survive-row (worst-case completion under f
// node-local faults, f = 0..k) and its kill cost.
type completionCand struct {
	row  []model.Time
	cost int
	inst policy.InstID
}

// maxExactCompletionCands bounds the exact subset enumeration; beyond it
// the sound conservative fallback is used.
const maxExactCompletionCands = 10

// guaranteedCompletion returns the worst-case time by which, under every
// distribution of at most k faults, at least one replica has certainly
// completed, together with the replica realizing it.
//
// Exact form (small replica counts): the adversary picks a subset S of
// replicas to kill (Σ cost ≤ k) and uses the remaining budget to delay
// the survivors; each survivor is then bounded by its row at the
// remaining budget, and the first completion is their minimum. The
// result maximizes over all affordable S.
//
// For large replica counts the fallback treats every replica's full-
// budget completion row[k] as a fixed availability and runs the greedy
// prefix-kill of guaranteedFirstValid, which is provably an upper bound
// of the exact form. ok is false when all replicas can be killed.
func guaranteedCompletion(cands []completionCand, k int) (t model.Time, first policy.InstID, ok bool) {
	n := len(cands)
	if n == 0 {
		return 0, NoInst, false
	}
	if n > maxExactCompletionCands {
		flat := make([]candidate, n)
		for i, c := range cands {
			flat[i] = candidate{avail: c.row[k], killCost: c.cost, inst: c.inst}
		}
		return guaranteedFirstValid(flat, k)
	}
	best := model.Time(-1)
	bestInst := NoInst
	for mask := 0; mask < 1<<n; mask++ {
		cost := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += cands[i].cost
			}
		}
		if cost > k {
			continue
		}
		if mask == 1<<n-1 {
			// The whole replica set is affordable to kill: the policy
			// does not tolerate k faults.
			return 0, NoInst, false
		}
		rem := k - cost
		mn := model.Infinity
		mi := NoInst
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			if v := cands[i].row[rem]; v < mn || (v == mn && cands[i].inst < mi) {
				mn, mi = v, cands[i].inst
			}
		}
		if mn > best {
			best, bestInst = mn, mi
		}
	}
	return best, bestInst, true
}

// nodeTimeline is the incremental worst-case analysis of one node: for
// the sequence of instances placed on the node so far, busy[f] is the
// worst-case time until the node is idle again under at most f local
// faults (counting both surviving and dying executions of every placed
// instance). A fresh timeline has busy ≡ 0.
type nodeTimeline struct {
	k    int
	mu   model.Time
	busy []model.Time
	// busyFull[h] is the worst-case node-free time under at most h
	// faults ON THIS NODE while the rest of the budget (up to k faults)
	// may hit the rest of the system (every placed instance's inputs
	// taken at their full-budget guarantee gr[k]). It upper-bounds the
	// node timeline in scenarios where the adversary attacks this node
	// with a limited share of the budget, and underpins the sound
	// transmission rule for replicas (see placed.sendReady).
	busyFull []model.Time
	// spare/spareFull are the double buffers the DP writes into before
	// swapping, so placements allocate no busy rows.
	spare, spareFull []model.Time
	// nominal is the fault-free completion of the last placed instance.
	nominal model.Time
	// last is the most recently placed instance, for critical-path
	// binding; -1 when the node is still empty.
	last policy.InstID
	// sharing selects the shared-slack DP; when false every instance
	// reserves its own private worst-case re-execution slack.
	sharing bool
}

func newNodeTimeline(k int, mu model.Time, sharing bool) *nodeTimeline {
	backing := make([]model.Time, 4*(k+1))
	return &nodeTimeline{
		k:         k,
		mu:        mu,
		busy:      backing[0 : k+1 : k+1],
		busyFull:  backing[k+1 : 2*(k+1) : 2*(k+1)],
		spare:     backing[2*(k+1) : 3*(k+1) : 3*(k+1)],
		spareFull: backing[3*(k+1):],
		last:      NoInst,
		sharing:   sharing,
	}
}

// placed is the analysis result for one instance appended to a node.
type placed struct {
	// nominalStart / nominalFinish is the fault-free execution window.
	nominalStart, nominalFinish model.Time
	// survRow[f] is the worst-case completion among scenarios with at
	// most f faults on this node's timeline in which the instance still
	// produces valid output.
	survRow []model.Time
	// wcFinish is survRow[k]: the overall worst-case surviving
	// completion.
	wcFinish model.Time
	// sendReady is the transmission rule: outbound messages go into the
	// first MEDL slot at or after this time, and the receivers' analysis
	// charges the adversary x+1 faults (x = the sender's re-execution
	// count) for invalidating the delivery. Two sound bounds are
	// combined by taking their minimum:
	//
	//   - F(k) = survRow[k]: under any in-hypothesis scenario the
	//     surviving sender finishes by F(k), so the delivery can only be
	//     invalidated by killing the sender outright (x+1 self faults).
	//     This is the plain transparency rule of [11] / Figure 4a and is
	//     exact for single-replica (re-executed) processes, where x = k.
	//
	//   - S = max over g ≤ x of max(gr[k], busyFull[x-g]) + (g+1)c + gµ:
	//     inputs are taken at their FULL-budget guarantee (so upstream
	//     fault cascades can never delay the sender past S), and only
	//     x node-local faults are budgeted. A delivery scheduled at or
	//     after S can therefore only be invalidated by MORE than x
	//     faults on the sender's own node — and replicas of one process
	//     live on distinct nodes, so the kill costs of the deliveries of
	//     an edge stay additive. This bound lets replicas transmit much
	//     earlier than F(k) when the rest of the node's budget-induced
	//     delay does not concern them.
	//
	// A naive aggressive rule — sending at the completion under only the
	// replica's own fault count with inputs at the same small budget —
	// is unsound: upstream faults cascade through message chains and a
	// single fault can invalidate several deliveries at once.
	sendReady model.Time
	// boundByPrev reports whether, at full budget, the worst-case start
	// was determined by the node's previous instance rather than by the
	// instance's guaranteed input readiness.
	boundByPrev bool
	prevInst    policy.InstID
}

// placeRow appends an instance with guaranteed input-ready vector gr
// (gr[f] = worst-case input readiness under at most f faults, len k+1),
// nominal input-ready time nr, fault-free execution time b (the WCET
// plus any checkpointing overhead), per-fault recovery cost d (plain
// re-execution: d = C+µ, the whole process is redone; n checkpoints:
// d = ⌈C/(n+1)⌉+µ, only the hit segment) and x recoverable faults, and
// advances the timeline. The DP is
//
//	survive(f) = max over g = 0..min(f,x) of
//	             max(gr[f-g], busy[f-g]) + b + g·d
//	die(f)     = max(gr[f-x-1], busy[f-x-1]) + b + x·d + µ   (when f > x)
//	busy'(f)   = max(survive(f), die(f))
//
// (the die case completes all but the last segment and the fatal fault
// chain hits that segment: b − seg + (x+1)·d = b + x·d + µ),
//
// realizing the shared re-execution slack of [11]: the f faults are
// distributed adversarially between delaying the inputs (via gr),
// delaying or killing earlier instances on the node (via busy) and
// re-executing the instance itself (g). Taking max(gr[h], busy[h])
// rather than a sum is sound because both are monotone: any split
// h1+h2 = h satisfies max(gr[h1], busy[h2]) ≤ max(gr[h], busy[h]).
//
// row backs the placement's survRow (len k+1, fully overwritten); builds
// pass arena rows so placements allocate nothing.
func (nt *nodeTimeline) placeRow(id policy.InstID, gr []model.Time, nr, b, d model.Time, x int, row []model.Time) placed {
	k, mu := nt.k, nt.mu
	if x > k {
		x = k
	}
	res := placed{prevInst: nt.last, survRow: row}
	res.nominalStart = model.MaxTime(nr, nt.nominal)
	res.nominalFinish = res.nominalStart + b
	base := func(h int) model.Time {
		return model.MaxTime(gr[h], nt.busy[h])
	}
	// baseFull bounds the start under h node-local faults with the full
	// budget on the inputs (for busyFull and the transmission rule S).
	baseFull := func(h int) model.Time {
		return model.MaxTime(gr[k], nt.busyFull[h])
	}
	newBusy := nt.spare
	newBusyFull := nt.spareFull
	var send model.Time
	if nt.sharing {
		for f := 0; f <= k; f++ {
			best := base(f) + b
			bestFull := baseFull(f) + b
			for g := 1; g <= f && g <= x; g++ {
				cand := base(f-g) + b + model.Time(g)*d
				if cand > best {
					best = cand
				}
				candFull := baseFull(f-g) + b + model.Time(g)*d
				if candFull > bestFull {
					bestFull = candFull
				}
			}
			res.survRow[f] = best
			newBusy[f] = best
			newBusyFull[f] = bestFull
			if f == x {
				send = bestFull
			}
			if f > x {
				die := base(f-x-1) + b + model.Time(x)*d + mu
				if die > newBusy[f] {
					newBusy[f] = die
				}
				dieFull := baseFull(f-x-1) + b + model.Time(x)*d + mu
				if dieFull > newBusyFull[f] {
					newBusyFull[f] = dieFull
				}
			}
		}
	} else {
		// Private slack: the instance always reserves its own full
		// worst-case re-execution window, independent of the budget
		// spent elsewhere (naive baseline without slack sharing).
		fin := base(k) + b + model.Time(x)*d
		finFull := baseFull(k) + b + model.Time(x)*d
		for f := 0; f <= k; f++ {
			res.survRow[f] = fin
			newBusy[f] = fin
			newBusyFull[f] = finFull
		}
		send = finFull
	}
	res.wcFinish = res.survRow[k]
	// Both bounds are sound; use the earlier one (see sendReady).
	res.sendReady = model.MinTime(send, res.wcFinish)
	res.boundByPrev = nt.last >= 0 && nt.busy[k] >= gr[k]
	nt.busy, nt.spare = newBusy, nt.busy
	nt.busyFull, nt.spareFull = newBusyFull, nt.busyFull
	nt.nominal = res.nominalFinish
	nt.last = id
	return res
}

// reset returns the timeline to its initial (empty) state for a new
// schedule construction, keeping the row backings. The fault budget k
// is baked into the backing sizes, so a timeline is only reusable for
// the same k; callers needing another k build a fresh one.
func (nt *nodeTimeline) reset(mu model.Time, sharing bool) {
	for i := range nt.busy {
		nt.busy[i] = 0
	}
	for i := range nt.busyFull {
		nt.busyFull[i] = 0
	}
	nt.mu = mu
	nt.nominal = 0
	nt.last = NoInst
	nt.sharing = sharing
}
