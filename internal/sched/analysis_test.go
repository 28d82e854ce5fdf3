package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

func TestGuaranteedFirstValid(t *testing.T) {
	c := func(avail int64, cost int, id int) candidate {
		return candidate{avail: model.Ms(avail), killCost: cost, inst: policy.InstID(id)}
	}
	t.Run("no candidates", func(t *testing.T) {
		if _, _, ok := guaranteedFirstValid(nil, 3); ok {
			t.Error("empty candidate set should not be guaranteed")
		}
	})
	t.Run("budget zero returns earliest", func(t *testing.T) {
		got, first, ok := guaranteedFirstValid([]candidate{c(50, 1, 0), c(30, 1, 1)}, 0)
		if !ok || got != model.Ms(30) || first != 1 {
			t.Errorf("got %v/%d/%v, want 30ms/1/true", got, first, ok)
		}
	})
	t.Run("kills earliest first", func(t *testing.T) {
		got, first, ok := guaranteedFirstValid([]candidate{c(30, 1, 0), c(50, 1, 1), c(70, 1, 2)}, 2)
		if !ok || got != model.Ms(70) || first != 2 {
			t.Errorf("got %v/%d/%v, want 70ms/2/true", got, first, ok)
		}
	})
	t.Run("expensive candidate blocks", func(t *testing.T) {
		got, _, ok := guaranteedFirstValid([]candidate{c(30, 3, 0), c(50, 1, 1)}, 2)
		if !ok || got != model.Ms(30) {
			t.Errorf("got %v, want 30ms (cost 3 exceeds budget 2)", got)
		}
	})
	t.Run("all killable", func(t *testing.T) {
		if _, _, ok := guaranteedFirstValid([]candidate{c(30, 1, 0), c(50, 1, 1)}, 2); ok {
			t.Error("fully killable set should report !ok")
		}
	})
	t.Run("tie broken by instance id", func(t *testing.T) {
		_, first, _ := guaranteedFirstValid([]candidate{c(30, 1, 5), c(30, 1, 2)}, 0)
		if first != 2 {
			t.Errorf("tie should pick smaller instance id, got %d", first)
		}
	})
}

func TestGuaranteedCompletion(t *testing.T) {
	row := func(ms ...int64) []model.Time {
		out := make([]model.Time, len(ms))
		for i, v := range ms {
			out[i] = model.Ms(v)
		}
		return out
	}
	t.Run("single replica uses full budget", func(t *testing.T) {
		got, first, ok := guaranteedCompletion([]completionCand{
			{row: row(30, 70, 110), cost: 3, inst: 0},
		}, 2)
		if !ok || got != model.Ms(110) || first != 0 {
			t.Errorf("got %v/%d/%v, want 110ms", got, first, ok)
		}
	})
	t.Run("kill does not double spend", func(t *testing.T) {
		// Two replicas, k=1: killing replica 0 (cost 1) leaves no budget
		// to slow replica 1, so the answer is row1[0], not row1[1].
		got, first, ok := guaranteedCompletion([]completionCand{
			{row: row(30, 100), cost: 1, inst: 0},
			{row: row(40, 200), cost: 1, inst: 1},
		}, 1)
		if !ok || got != model.Ms(100) {
			t.Errorf("got %v/%d/%v, want 100ms (slow replica 0: min(100,40)=40; kill 0: 40; kill 1: 30; max is slowing both? "+
				"mask ∅ rem1: min(100,200)=100)", got, first, ok)
		}
	})
	t.Run("intolerant set", func(t *testing.T) {
		if _, _, ok := guaranteedCompletion([]completionCand{
			{row: row(30, 30, 30), cost: 1, inst: 0},
			{row: row(40, 40, 40), cost: 1, inst: 1},
		}, 2); ok {
			t.Error("both replicas killable within budget: should report !ok")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, _, ok := guaranteedCompletion(nil, 1); ok {
			t.Error("empty set should report !ok")
		}
	})
	t.Run("fallback is conservative", func(t *testing.T) {
		// More than maxExactCompletionCands replicas: falls back to the
		// greedy prefix kill over row[k] constants. Verify it is an
		// upper bound of the exact value on a mirrored small instance.
		var big []completionCand
		for i := 0; i < maxExactCompletionCands+2; i++ {
			big = append(big, completionCand{row: row(int64(30+i), int64(60+i)), cost: 1, inst: policy.InstID(i)})
		}
		gotBig, _, ok := guaranteedCompletion(big, 1)
		if !ok {
			t.Fatal("large set should be tolerable")
		}
		exact, _, _ := guaranteedCompletion(big[:4], 1)
		if gotBig < exact {
			t.Errorf("fallback %v must be >= exact-on-subset %v", gotBig, exact)
		}
	})
}

// TestGuaranteedCompletionFallbackSound property: the conservative
// fallback always dominates the exact subset analysis.
func TestGuaranteedCompletionFallbackSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		n := 2 + rng.Intn(4)
		cands := make([]completionCand, n)
		for i := range cands {
			base := model.Ms(int64(10 + rng.Intn(90)))
			r := make([]model.Time, k+1)
			r[0] = base
			for f := 1; f <= k; f++ {
				r[f] = r[f-1] + model.Ms(int64(rng.Intn(50)))
			}
			cands[i] = completionCand{row: r, cost: 1 + rng.Intn(k+1), inst: policy.InstID(i)}
		}
		exact, _, okE := guaranteedCompletion(cands, k)
		flat := make([]candidate, n)
		for i, c := range cands {
			flat[i] = candidate{avail: c.row[k], killCost: c.cost, inst: c.inst}
		}
		cons, _, okC := guaranteedFirstValid(flat, k)
		if okE != okC {
			return false
		}
		if !okE {
			return true
		}
		return cons >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// place runs placeRow into a fresh row and returns the placement.
func place(nt *nodeTimeline, id policy.InstID, gr []model.Time, nr, b, d model.Time, x int) placed {
	var p placed
	nt.placeRow(id, gr, nr, b, d, x, make([]model.Time, nt.k+1), &p)
	return p
}

func TestNodeTimelineSharedSlack(t *testing.T) {
	// Two 40ms processes with one re-execution each under k=1, µ=10:
	// the second completes by 130ms worst case (shared slack), and the
	// node-busy row reflects the same bound.
	nt := newNodeTimeline(1, model.Ms(10), true)
	gr := []model.Time{0, 0}
	p1 := place(nt, 0, gr, 0, model.Ms(40), model.Ms(50), 1)
	if p1.wcFinish != model.Ms(90) {
		t.Errorf("P1 wcFinish = %v, want 90ms", p1.wcFinish)
	}
	p2 := place(nt, 1, gr, p1.nominalFinish, model.Ms(40), model.Ms(50), 1)
	if p2.wcFinish != model.Ms(130) {
		t.Errorf("P2 wcFinish = %v, want 130ms (shared slack)", p2.wcFinish)
	}
	if p2.nominalStart != model.Ms(40) || p2.nominalFinish != model.Ms(80) {
		t.Errorf("P2 nominal window = [%v,%v], want [40,80]", p2.nominalStart, p2.nominalFinish)
	}
	if !p2.boundByPrev {
		t.Error("P2 should be bound by P1 on the node")
	}
}

func TestNodeTimelinePrivateSlack(t *testing.T) {
	// Without sharing, each process reserves its own (C+µ): the second
	// finishes at 40+50 + 40+50 = 180 in the analysis.
	nt := newNodeTimeline(1, model.Ms(10), false)
	gr := []model.Time{0, 0}
	place(nt, 0, gr, 0, model.Ms(40), model.Ms(50), 1)
	p2 := place(nt, 1, gr, model.Ms(40), model.Ms(40), model.Ms(50), 1)
	if p2.wcFinish != model.Ms(180) {
		t.Errorf("P2 wcFinish = %v, want 180ms (private slack)", p2.wcFinish)
	}
}

func TestNodeTimelineDieCase(t *testing.T) {
	// A replica with no re-executions that dies still occupies the node
	// for C+µ; a following process sees that in the busy row.
	nt := newNodeTimeline(1, model.Ms(10), true)
	gr := []model.Time{0, 0}
	r := place(nt, 0, gr, 0, model.Ms(40), model.Ms(50), 0)
	if r.wcFinish != model.Ms(40) {
		t.Errorf("replica wcFinish = %v, want 40ms", r.wcFinish)
	}
	// busy[1] must include the die case 40+10 = 50.
	p2 := place(nt, 1, gr, model.Ms(40), model.Ms(20), model.Ms(30), 0)
	if p2.wcFinish != model.Ms(70) {
		t.Errorf("successor wcFinish = %v, want 70ms (50 busy + 20)", p2.wcFinish)
	}
}

func TestNodeTimelineSendReady(t *testing.T) {
	// For a re-executed process (x = k) the transmission rule is the
	// plain transparency rule: send after the full potential
	// re-execution (Figure 4a).
	nt := newNodeTimeline(2, model.Ms(10), true)
	gr := []model.Time{0, 0, 0}
	first := place(nt, 0, gr, 0, model.Ms(30), model.Ms(40), 2)
	if first.sendReady != first.wcFinish || first.sendReady != model.Ms(110) {
		t.Errorf("re-executed process sendReady = %v, want 110ms = wcFinish", first.sendReady)
	}
	// A replica (x=0) following it transmits after its zero-node-fault
	// window (30+20 = 50), NOT after the full-budget worst case 130:
	// its delivery is covered by charging the adversary one fault.
	rep := place(nt, 1, gr, model.Ms(30), model.Ms(20), model.Ms(30), 0)
	if rep.sendReady != model.Ms(50) {
		t.Errorf("replica sendReady = %v, want 50ms", rep.sendReady)
	}
	if rep.wcFinish != model.Ms(130) {
		t.Errorf("replica wcFinish = %v, want 130ms", rep.wcFinish)
	}
}

// Property: survRow and busy are monotone in the fault budget, and
// wcFinish never precedes nominalFinish.
func TestNodeTimelineMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(4)
		nt := newNodeTimeline(k, model.Ms(int64(rng.Intn(20))), rng.Intn(2) == 0)
		ready := model.Time(0)
		for i := 0; i < 8; i++ {
			gr := make([]model.Time, k+1)
			for f := range gr {
				gr[f] = ready
				if f > 0 {
					gr[f] = gr[f-1] + model.Ms(int64(rng.Intn(10)))
				}
			}
			c := model.Ms(int64(10 + rng.Intn(50)))
			x := rng.Intn(k + 1)
			pl := place(nt, policy.InstID(i), gr, ready, c, c+nt.mu, x)
			for f := 1; f <= k; f++ {
				if pl.survRow[f] < pl.survRow[f-1] {
					return false
				}
				if nt.busy[f] < nt.busy[f-1] {
					return false
				}
			}
			if pl.wcFinish < pl.nominalFinish {
				return false
			}
			if pl.sendReady > pl.wcFinish {
				return false
			}
			ready = pl.nominalFinish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceRaiseFirstValid is readiness's per-edge loop before the one
// scan: a guaranteedFirstValid call, which sorts again, for every
// budget f.
func referenceRaiseFirstValid(gr []model.Time, remotes []candidate, localCost int) (bound policy.InstID, fail int) {
	k := len(gr) - 1
	bound = NoInst
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
			return bound, f
		}
		if t > gr[f] {
			gr[f] = t
			if f == k {
				bound = first
			}
		}
	}
	return bound, -1
}

// TestRaiseFirstValidMatchesPerBudget holds the one-scan budget rule to
// k+1 guaranteedFirstValid calls over random deliveries: a local replica
// present, absent or out of the adversary's reach (localCost > k), no
// remote deliveries at all, equal arrivals with different kill costs
// and equal arrivals tied on instance ID order. gr, the bound instance
// and the first failing budget must agree.
func TestRaiseFirstValidMatchesPerBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var fails, binds, ties int
	for round := 0; round < 20000; round++ {
		k := rng.Intn(7)
		n := rng.Intn(5)
		if round%10 == 0 {
			n = 0
		}
		ids := rng.Perm(4 * (n + 1))
		remotes := make([]candidate, n)
		for i := range remotes {
			remotes[i] = candidate{
				avail:    model.Ms(int64(10 * rng.Intn(4))), // few values: equal arrivals
				killCost: 1 + rng.Intn(k+2),
				inst:     policy.InstID(ids[i]),
			}
		}
		localCost := -1
		if rng.Intn(2) == 0 {
			localCost = 1 + rng.Intn(k+2) // sometimes beyond k
		}
		gr := make([]model.Time, k+1)
		for f := range gr {
			gr[f] = model.Ms(int64(rng.Intn(35)))
		}
		wantGR := slices.Clone(gr)
		wantBound, wantFail := referenceRaiseFirstValid(wantGR, slices.Clone(remotes), localCost)
		bound, fail := raiseFirstValid(gr, slices.Clone(remotes), localCost)
		if bound != wantBound || fail != wantFail || !slices.Equal(gr, wantGR) {
			t.Fatalf("round %d: k=%d local=%d remotes=%+v: got gr %v bound %d fail %d, reference gr %v bound %d fail %d",
				round, k, localCost, remotes, gr, bound, fail, wantGR, wantBound, wantFail)
		}
		if fail >= 0 {
			fails++
		}
		if bound != NoInst {
			binds++
		}
		for i := range remotes {
			for j := range remotes[:i] {
				if remotes[i].avail == remotes[j].avail {
					ties++
				}
			}
		}
	}
	if fails == 0 || binds == 0 || ties == 0 {
		t.Errorf("cases went unchecked: %d failing, %d binding, %d equal arrivals", fails, binds, ties)
	}
}

// referencePlaceRow is placeRow's DP before the start bounds were taken
// once per fault count and the window maximum was made incremental:
// every (f, g) pair recomputes its bound.
func referencePlaceRow(nt *nodeTimeline, id policy.InstID, gr []model.Time, nr, b, d model.Time, x int, row []model.Time) placed {
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

// TestPlaceRowMatchesReference holds placeRow to referencePlaceRow over
// random placement sequences, with and without slack sharing, for
// re-execution counts below, at and above k: every field of each
// placement and the timeline rows after it must agree.
func TestPlaceRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 3000; round++ {
		k := rng.Intn(7)
		mu := model.Ms(int64(rng.Intn(10)))
		sharing := rng.Intn(4) != 0
		got, want := newNodeTimeline(k, mu, sharing), newNodeTimeline(k, mu, sharing)
		nominal := model.Time(0)
		for i := 0; i < 6; i++ {
			gr := make([]model.Time, k+1)
			for f := range gr {
				gr[f] = nominal + model.Ms(int64(rng.Intn(60)))
			}
			slices.Sort(gr) // guaranteed readiness grows with the budget
			c := model.Ms(int64(1 + rng.Intn(40)))
			d := c/model.Time(1+rng.Intn(3)) + mu
			x := rng.Intn(k + 2)
			id := policy.InstID(i)
			p := place(got, id, gr, nominal, c, d, x)
			q := referencePlaceRow(want, id, gr, nominal, c, d, x, make([]model.Time, k+1))
			if !slices.Equal(p.survRow, q.survRow) || p.nominalStart != q.nominalStart ||
				p.nominalFinish != q.nominalFinish || p.wcFinish != q.wcFinish ||
				p.sendReady != q.sendReady || p.boundByPrev != q.boundByPrev || p.prevInst != q.prevInst {
				t.Fatalf("round %d placement %d (k=%d x=%d sharing=%v): got %+v, reference %+v", round, i, k, x, sharing, p, q)
			}
			if !slices.Equal(got.busy, want.busy) || !slices.Equal(got.busyFull, want.busyFull) {
				t.Fatalf("round %d placement %d: busy %v/%v, reference %v/%v",
					round, i, got.busy, got.busyFull, want.busy, want.busyFull)
			}
			nominal = p.nominalFinish
		}
	}
}
