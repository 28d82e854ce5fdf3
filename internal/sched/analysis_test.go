package sched

import (
	"math/rand"
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

func TestNodeTimelineSharedSlack(t *testing.T) {
	// Two 40ms processes with one re-execution each under k=1, µ=10:
	// the second completes by 130ms worst case (shared slack), and the
	// node-busy row reflects the same bound.
	nt := newNodeTimeline(1, model.Ms(10), true)
	gr := []model.Time{0, 0}
	p1 := nt.placeRow(0, gr, 0, model.Ms(40), model.Ms(50), 1, make([]model.Time, nt.k+1))
	if p1.wcFinish != model.Ms(90) {
		t.Errorf("P1 wcFinish = %v, want 90ms", p1.wcFinish)
	}
	p2 := nt.placeRow(1, gr, p1.nominalFinish, model.Ms(40), model.Ms(50), 1, make([]model.Time, nt.k+1))
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
	nt.placeRow(0, gr, 0, model.Ms(40), model.Ms(50), 1, make([]model.Time, nt.k+1))
	p2 := nt.placeRow(1, gr, model.Ms(40), model.Ms(40), model.Ms(50), 1, make([]model.Time, nt.k+1))
	if p2.wcFinish != model.Ms(180) {
		t.Errorf("P2 wcFinish = %v, want 180ms (private slack)", p2.wcFinish)
	}
}

func TestNodeTimelineDieCase(t *testing.T) {
	// A replica with no re-executions that dies still occupies the node
	// for C+µ; a following process sees that in the busy row.
	nt := newNodeTimeline(1, model.Ms(10), true)
	gr := []model.Time{0, 0}
	r := nt.placeRow(0, gr, 0, model.Ms(40), model.Ms(50), 0, make([]model.Time, nt.k+1))
	if r.wcFinish != model.Ms(40) {
		t.Errorf("replica wcFinish = %v, want 40ms", r.wcFinish)
	}
	// busy[1] must include the die case 40+10 = 50.
	p2 := nt.placeRow(1, gr, model.Ms(40), model.Ms(20), model.Ms(30), 0, make([]model.Time, nt.k+1))
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
	first := nt.placeRow(0, gr, 0, model.Ms(30), model.Ms(40), 2, make([]model.Time, nt.k+1))
	if first.sendReady != first.wcFinish || first.sendReady != model.Ms(110) {
		t.Errorf("re-executed process sendReady = %v, want 110ms = wcFinish", first.sendReady)
	}
	// A replica (x=0) following it transmits after its zero-node-fault
	// window (30+20 = 50), NOT after the full-budget worst case 130:
	// its delivery is covered by charging the adversary one fault.
	rep := nt.placeRow(1, gr, model.Ms(30), model.Ms(20), model.Ms(30), 0, make([]model.Time, nt.k+1))
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
			pl := nt.placeRow(policy.InstID(i), gr, ready, c, c+nt.mu, x, make([]model.Time, nt.k+1))
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
