package exact

import (
	"math/rand"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
)

func randomProblem(rng *rand.Rand, nProcs, nNodes, k int) core.Problem {
	app := model.NewApplication("rand")
	g := app.AddGraph("G", model.Ms(1000000), model.Ms(1000000))
	procs := make([]*model.Process, nProcs)
	for i := range procs {
		procs[i] = app.AddProcess(g, "P")
	}
	for i := 0; i < nProcs; i++ {
		for j := i + 1; j < nProcs; j++ {
			if rng.Intn(4) == 0 {
				g.AddEdge(procs[i], procs[j], 1+rng.Intn(4))
			}
		}
	}
	a := arch.New(nNodes)
	w := arch.NewWCET()
	for _, p := range procs {
		for n := 0; n < nNodes; n++ {
			w.Set(p.ID, arch.NodeID(n), model.Ms(int64(10+rng.Intn(91))))
		}
	}
	return core.Problem{App: app, Arch: a, WCET: w, Faults: fault.Model{K: k, Mu: model.Ms(5)}}
}

func TestCandidatePolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 1, 3, 2)
	id := p.App.Processes()[0].ID
	cands := candidatePolicies(p, id)
	// 3 singletons (reexec 2) + 3 pairs × 2 extra-placements (3 execs
	// over 2 replicas) + 1 triple (even 1/1/1) = 3 + 6 + 1 = 10.
	if len(cands) != 10 {
		t.Fatalf("got %d candidates, want 10: %v", len(cands), cands)
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if err := c.Validate(p.Faults.K, p.WCET, id); err != nil {
			t.Errorf("candidate %v invalid: %v", c, err)
		}
		key := c.String()
		if seen[key] {
			t.Errorf("duplicate candidate %v", c)
		}
		seen[key] = true
	}
}

func TestCandidatePoliciesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 1, 3, 1)
	id := p.App.Processes()[0].ID

	p.ForceReexecution = map[model.ProcID]bool{id: true}
	for _, c := range candidatePolicies(p, id) {
		if len(c.Replicas) != 1 {
			t.Errorf("P_X candidate %v not pure re-execution", c)
		}
	}
	p.ForceReexecution = nil
	p.ForceReplication = map[model.ProcID]bool{id: true}
	for _, c := range candidatePolicies(p, id) {
		if len(c.Replicas) != 2 {
			t.Errorf("P_R candidate %v not k+1 replicas", c)
		}
	}
	p.ForceReplication = nil
	p.FixedMapping = map[model.ProcID]arch.NodeID{id: 1}
	for _, c := range candidatePolicies(p, id) {
		if !c.UsesNode(1) {
			t.Errorf("pinned candidate %v does not use node 1", c)
		}
	}
}

func TestSearchSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 4, 2, 1)
	res, err := Search(p, Options{SlackSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	// 2 singletons + 1 pair = 3 candidates per process, 4 processes.
	if res.Designs != 81 {
		t.Errorf("evaluated %d designs, want 81", res.Designs)
	}
	if res.Schedule == nil || res.Cost.Makespan <= 0 {
		t.Fatal("no best design")
	}
	if err := res.Assignment.Validate(res.Schedule.In.Graph, p.WCET, p.Faults.K); err != nil {
		t.Errorf("optimal assignment invalid: %v", err)
	}
}

func TestSearchRespectsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, 10, 3, 2)
	if _, err := Search(p, Options{MaxDesigns: 100, SlackSharing: true}); err == nil {
		t.Error("search accepted a design space above the limit")
	}
}

// TestHeuristicNeverBeatsExact is the oracle test: the tabu search can
// never produce a better cost than exhaustive enumeration, and with a
// generous budget on tiny instances it should usually match it.
func TestHeuristicNeverBeatsExact(t *testing.T) {
	matched := 0
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(10 + seed))
		p := randomProblem(rng, 5, 2, 1)
		ex, err := Search(p, Options{SlackSharing: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(core.MXR)
		opts.MaxIterations = 300
		heur, err := core.Optimize(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if heur.Cost.Less(ex.Cost) {
			t.Errorf("seed %d: heuristic %v beats exact %v — exact space incomplete",
				seed, heur.Cost, ex.Cost)
		}
		if !ex.Cost.Less(heur.Cost) {
			matched++
		} else {
			t.Logf("seed %d: gap %v vs %v", seed, heur.Cost, ex.Cost)
		}
	}
	if matched < seeds/2 {
		t.Errorf("tabu search matched the optimum on only %d of %d tiny instances", matched, seeds)
	}
}
