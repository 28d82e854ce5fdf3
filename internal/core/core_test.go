package core

import (
	"math/rand"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// diamondProblem builds the 4-process diamond used by several tests:
// P1→{P2,P3}→P4 with uniform 40ms WCETs on two nodes.
func diamondProblem(t *testing.T, k int, deadline model.Time) Problem {
	t.Helper()
	app := model.NewApplication("diamond")
	g := app.AddGraph("G", model.Ms(100000), deadline)
	p1 := app.AddProcess(g, "P1")
	p2 := app.AddProcess(g, "P2")
	p3 := app.AddProcess(g, "P3")
	p4 := app.AddProcess(g, "P4")
	g.AddEdge(p1, p2, 4)
	g.AddEdge(p1, p3, 4)
	g.AddEdge(p2, p4, 4)
	g.AddEdge(p3, p4, 4)
	a := arch.New(2)
	w := arch.NewWCET()
	for _, p := range []*model.Process{p1, p2, p3, p4} {
		w.Set(p.ID, 0, model.Ms(40))
		w.Set(p.ID, 1, model.Ms(40))
	}
	return Problem{
		App:    app,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: k, Mu: model.Ms(10)},
	}
}

func randomProblem(rng *rand.Rand, nProcs, nNodes, k int) Problem {
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
	return Problem{App: app, Arch: a, WCET: w, Faults: fault.Model{K: k, Mu: model.Ms(5)}}
}

func optimize(t *testing.T, p Problem, s Strategy) *Result {
	t.Helper()
	opts := DefaultOptions(s)
	opts.MaxIterations = 60
	res, err := Optimize(p, opts)
	if err != nil {
		t.Fatalf("Optimize(%v): %v", s, err)
	}
	return res
}

func TestOptimizeProducesValidDesigns(t *testing.T) {
	for _, s := range []Strategy{MXR, MX, MR, SFX, NFT} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			p := diamondProblem(t, 1, 0)
			res := optimize(t, p, s)
			if res.Schedule == nil {
				t.Fatal("nil schedule")
			}
			if res.Cost.Makespan <= 0 {
				t.Fatalf("non-positive makespan %v", res.Cost.Makespan)
			}
			wantK := p.Faults.K
			if s == NFT {
				wantK = 0
			}
			for _, proc := range p.App.Processes() {
				pol, ok := res.Assignment[proc.ID]
				if !ok {
					t.Fatalf("process %v missing from assignment", proc)
				}
				if pol.Executions() < wantK+1 {
					t.Errorf("process %v has %d executions, need %d", proc, pol.Executions(), wantK+1)
				}
				switch s {
				case MX, SFX, NFT:
					if pol.ReplicaCount() != 1 {
						t.Errorf("%v must not replicate, got %v", s, pol)
					}
				case MR:
					want := wantK + 1
					if n := p.Arch.NumNodes(); n < want {
						want = n
					}
					if pol.ReplicaCount() != want {
						t.Errorf("MR must use min(k+1, nodes) replicas, got %v", pol)
					}
				}
			}
		})
	}
}

// TestMXRDominatesSingles: on small instances with enough iterations the
// combined policy search must be at least as good as either pure policy
// (its move set is a superset).
func TestMXRDominatesSingles(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 8, 3, 2)
		mxr := optimize(t, p, MXR)
		mx := optimize(t, p, MX)
		mr := optimize(t, p, MR)
		if mx.Cost.Less(mxr.Cost) {
			t.Errorf("seed %d: MX %v beats MXR %v", seed, mx.Cost, mxr.Cost)
		}
		if mr.Cost.Less(mxr.Cost) {
			t.Errorf("seed %d: MR %v beats MXR %v", seed, mr.Cost, mxr.Cost)
		}
	}
}

// TestFigure5MappingMustConsiderFaultTolerance reproduces the lesson of
// the paper's Figure 5: the best non-fault-tolerant mapping (spreading
// over the nodes) becomes a bad choice once re-execution is applied on
// top of it (SFX), while the fault-tolerance-aware search clusters the
// processes and wins.
func TestFigure5MappingMustConsiderFaultTolerance(t *testing.T) {
	p := diamondProblem(t, 1, 0)
	nft := optimize(t, p, NFT)
	sfx := optimize(t, p, SFX)
	mx := optimize(t, p, MX)

	// NFT prefers to spread: its makespan beats the serial chain 160ms.
	if nft.Cost.Makespan >= model.Ms(160) {
		t.Errorf("NFT makespan = %v, want < 160ms (parallel mapping)", nft.Cost.Makespan)
	}
	spread := false
	nodes := map[arch.NodeID]bool{}
	for _, pol := range nft.Assignment {
		nodes[pol.Replicas[0].Node] = true
	}
	spread = len(nodes) > 1
	if !spread {
		t.Error("NFT should use both nodes")
	}
	// Applying re-execution on the NFT mapping (SFX) is much worse than
	// the fault-tolerance-aware mapping (MX).
	if sfx.Cost.Makespan <= mx.Cost.Makespan {
		t.Errorf("SFX %v should lose to FT-aware MX %v (Figure 5)", sfx.Cost, mx.Cost)
	}
}

// TestSFXReexecutesNFTMapping pins SFX as a two-step pipeline: its
// design re-executes every process on the node an NFT search with the
// same options maps it to, it reports that search's iterations and
// engine, and its observer sees only the final SFX design.
func TestSFXReexecutesNFTMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	engines := []Engine{nil, SimulatedAnnealingEngine{},
		PortfolioEngine{Racers: []Engine{TabuEngine{}, SimulatedAnnealingEngine{}}}}
	for trial, eng := range engines {
		p := randomProblem(rng, 12, 3, 2)
		bus := trial%2 == 0
		nft := solveWith(t, p, eng, func(o *Options) {
			o.Strategy = NFT
			o.OptimizeBusAccess = bus
		})
		var imps []Improvement
		sfx := solveWith(t, p, eng, func(o *Options) {
			o.Strategy = SFX
			o.OptimizeBusAccess = bus
			o.OnImprovement = func(imp Improvement) { imps = append(imps, imp) }
		})
		if len(sfx.Assignment) != len(nft.Assignment) {
			t.Fatalf("trial %d: SFX assigns %d processes, NFT %d", trial, len(sfx.Assignment), len(nft.Assignment))
		}
		for id, pol := range nft.Assignment {
			want := policy.Reexecution(pol.Replicas[0].Node, p.Faults.K)
			if got := sfx.Assignment[id]; !got.Equal(want) {
				t.Errorf("trial %d: process %d: SFX policy %v, want %v", trial, id, got, want)
			}
		}
		if sfx.Iterations != nft.Iterations || sfx.Engine != nft.Engine {
			t.Errorf("trial %d: SFX iterations/engine %d/%s, want NFT's %d/%s",
				trial, sfx.Iterations, sfx.Engine, nft.Iterations, nft.Engine)
		}
		if len(imps) != 1 || imps[0].Phase != "sfx" || imps[0].Cost != sfx.Cost {
			var seen []string
			for _, imp := range imps {
				seen = append(seen, imp.Phase+":"+imp.Cost.String())
			}
			t.Errorf("trial %d: observer saw %v, want one sfx improvement at %v", trial, seen, sfx.Cost)
		}
	}
}

func TestOptimizeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 10, 3, 1)
	r1 := optimize(t, p, MXR)
	r2 := optimize(t, p, MXR)
	if r1.Cost != r2.Cost {
		t.Fatalf("non-deterministic optimization: %v vs %v", r1.Cost, r2.Cost)
	}
	for id, pol := range r1.Assignment {
		if !pol.Equal(r2.Assignment[id]) {
			t.Fatalf("assignment of %d differs: %v vs %v", id, pol, r2.Assignment[id])
		}
	}
}

func TestStopWhenSchedulable(t *testing.T) {
	p := diamondProblem(t, 1, model.Ms(100000)) // deadline trivially met
	opts := DefaultOptions(MXR)
	opts.StopWhenSchedulable = true
	res, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Schedulable() {
		t.Fatal("design should be schedulable")
	}
	if res.Iterations != 0 {
		t.Errorf("initial solution already schedulable: want 0 search iterations, got %d", res.Iterations)
	}
}

func TestNFTUsesNoFaultTolerance(t *testing.T) {
	p := diamondProblem(t, 2, 0)
	res := optimize(t, p, NFT)
	for id, pol := range res.Assignment {
		if pol.Executions() != 1 {
			t.Errorf("NFT process %d has %d executions", id, pol.Executions())
		}
	}
	// NFT schedules ignore the fault model entirely.
	for _, it := range res.Schedule.Items() {
		if it.WCFinish != it.NominalFinish {
			t.Errorf("NFT item %v has slack: %v vs %v", it.Inst, it.WCFinish, it.NominalFinish)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	base := diamondProblem(t, 1, 0)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	p1 := base.App.Processes()[0].ID

	p := base
	p.ForceReexecution = map[model.ProcID]bool{p1: true}
	p.ForceReplication = map[model.ProcID]bool{p1: true}
	if err := p.Validate(); err == nil {
		t.Error("accepted process in both P_X and P_R")
	}

	p = base
	p.FixedMapping = map[model.ProcID]arch.NodeID{p1: 9}
	if err := p.Validate(); err == nil {
		t.Error("accepted fixed mapping to unknown node")
	}

	p = base
	p.ForceReplication = map[model.ProcID]bool{model.ProcID(99): true}
	if err := p.Validate(); err == nil {
		t.Error("accepted P_R with unknown process")
	}

	p = base
	p.App = nil
	if err := p.Validate(); err == nil {
		t.Error("accepted nil application")
	}
}

func TestFixedMappingRespected(t *testing.T) {
	p := diamondProblem(t, 1, 0)
	p1 := p.App.Processes()[0].ID
	p.FixedMapping = map[model.ProcID]arch.NodeID{p1: 1}
	res := optimize(t, p, MXR)
	if res.Assignment[p1].Replicas[0].Node != 1 {
		t.Errorf("fixed mapping ignored: %v", res.Assignment[p1])
	}
}

func TestForcedPoliciesRespected(t *testing.T) {
	p := diamondProblem(t, 1, 0)
	ids := p.App.Processes()
	p.ForceReexecution = map[model.ProcID]bool{ids[0].ID: true}
	p.ForceReplication = map[model.ProcID]bool{ids[1].ID: true}
	res := optimize(t, p, MXR)
	if res.Assignment[ids[0].ID].ReplicaCount() != 1 {
		t.Errorf("P_X process replicated: %v", res.Assignment[ids[0].ID])
	}
	if res.Assignment[ids[1].ID].ReplicaCount() != p.Faults.K+1 {
		t.Errorf("P_R process not fully replicated: %v", res.Assignment[ids[1].ID])
	}
}

func TestGenerateMoves(t *testing.T) {
	p := diamondProblem(t, 1, 0)
	st, err := newSearchState(p, DefaultOptions(MXR))
	if err != nil {
		t.Fatal(err)
	}
	ids := p.App.Processes()
	asgn := policy.Assignment{}
	for _, proc := range ids {
		asgn[proc.ID] = policy.Reexecution(0, 1)
	}
	moves := st.generateMoves(asgn, []model.ProcID{ids[0].ID})
	// For a re-executed process on N1 of a 2-node architecture: one
	// remap (to N2) and one replica addition (N1+N2).
	if len(moves) != 2 {
		t.Fatalf("got %d moves, want 2: %v", len(moves), moves)
	}
	seenRemap, seenAdd := false, false
	for _, m := range moves {
		switch m.pol.ReplicaCount() {
		case 1:
			if m.pol.Replicas[0].Node == 1 {
				seenRemap = true
			}
		case 2:
			seenAdd = true
		}
	}
	if !seenRemap || !seenAdd {
		t.Errorf("moves missing remap or replica addition: %v", moves)
	}

	// From a fully replicated policy: drops and remaps but no adds
	// (already at k+1 replicas, no unused nodes on 2 nodes).
	asgn[ids[0].ID] = policy.Replication(0, 1)
	moves = st.generateMoves(asgn, []model.ProcID{ids[0].ID})
	for _, m := range moves {
		if m.pol.ReplicaCount() > 2 {
			t.Errorf("unexpected replica addition: %v", m)
		}
	}

	// MX strategy: only remaps.
	stMX, _ := newSearchState(p, DefaultOptions(MX))
	asgn[ids[0].ID] = policy.Reexecution(0, 1)
	for _, m := range stMX.generateMoves(asgn, []model.ProcID{ids[0].ID}) {
		if m.pol.ReplicaCount() != 1 {
			t.Errorf("MX generated policy move: %v", m)
		}
	}
}

func TestInitialMPABalances(t *testing.T) {
	// Eight independent identical processes on two nodes: the initial
	// mapping must split them 4/4.
	app := model.NewApplication("bal")
	g := app.AddGraph("G", model.Ms(100000), 0)
	w := arch.NewWCET()
	for i := 0; i < 8; i++ {
		p := app.AddProcess(g, "P")
		w.Set(p.ID, 0, model.Ms(40))
		w.Set(p.ID, 1, model.Ms(40))
	}
	prob := Problem{App: app, Arch: arch.New(2), WCET: w, Faults: fault.Model{K: 1, Mu: model.Ms(5)}}
	st, err := newSearchState(prob, DefaultOptions(MXR))
	if err != nil {
		t.Fatal(err)
	}
	asgn, err := st.initialMPA()
	if err != nil {
		t.Fatal(err)
	}
	count := map[arch.NodeID]int{}
	for _, pol := range asgn {
		count[pol.Replicas[0].Node]++
	}
	if count[0] != 4 || count[1] != 4 {
		t.Errorf("initial mapping unbalanced: %v", count)
	}
}

func TestBusAccessOptimization(t *testing.T) {
	// Bus optimization must never worsen the design.
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 10, 3, 1)
	plain := optimize(t, p, MXR)
	opts := DefaultOptions(MXR)
	opts.MaxIterations = 60
	opts.OptimizeBusAccess = true
	withBus, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost.Less(withBus.Cost) {
		t.Errorf("bus optimization worsened the design: %v vs %v", withBus.Cost, plain.Cost)
	}
}

func TestMRFallsBackToMaximalReplication(t *testing.T) {
	// k=2 would need 3 replicas, but the architecture has only 2 nodes:
	// MR degrades to one replica per node with the k+1 executions
	// spread over them (re-executed replicas, Figure 2c).
	p := diamondProblem(t, 2, 0)
	res := optimize(t, p, MR)
	for id, pol := range res.Assignment {
		if pol.ReplicaCount() != 2 {
			t.Errorf("process %d: want 2 replicas, got %v", id, pol)
		}
		if pol.Executions() != 3 {
			t.Errorf("process %d: want 3 executions, got %v", id, pol)
		}
	}
	// An explicitly forced replication (P_R) stays strict and fails.
	p.ForceReplication = map[model.ProcID]bool{p.App.Processes()[0].ID: true}
	if err := p.Validate(); err == nil {
		t.Error("P_R with k+1 > allowed nodes should be rejected")
	}
}
