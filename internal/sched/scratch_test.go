package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// scratchSystem builds a random layered system for the scratch
// differential tests: procs processes on nodes nodes with random forward
// edges and WCETs, all driven by rng.
func scratchSystem(t *testing.T, rng *rand.Rand, procs, nodes int) (Input, []model.ProcID) {
	t.Helper()
	app := model.NewApplication("scratch")
	g := app.AddGraph("G", model.Ms(100000), model.Ms(100000))
	a := arch.New(nodes)
	w := arch.NewWCET()
	ps := make([]*model.Process, procs)
	for i := range ps {
		ps[i] = app.AddProcess(g, fmt.Sprintf("P%d", i+1))
		for n := 0; n < nodes; n++ {
			w.Set(ps[i].ID, arch.NodeID(n), model.Ms(int64(10+rng.Intn(90))))
		}
	}
	for i := 1; i < procs; i++ {
		// Every process gets one random predecessor (connected DAG) plus
		// occasionally a second, distinct one.
		first := rng.Intn(i)
		g.AddEdge(ps[first], ps[i], 1+rng.Intn(4))
		if rng.Intn(3) == 0 && i > 1 {
			if second := rng.Intn(i - 1); second != first {
				g.AddEdge(ps[second], ps[i], 1+rng.Intn(4))
			}
		}
	}
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.ProcID, procs)
	for i, p := range ps {
		ids[i] = p.ID
	}
	return Input{
		Graph:  merged,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: 2, Mu: model.Ms(5), Chi: model.Ms(1)},
		Bus:    ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: Options{
			SlackSharing: true,
		},
	}, ids
}

// randomAssignment draws one valid policy per process, varying replica
// counts so consecutive builds change the instance count (exercising the
// arena resizing paths).
func randomAssignment(rng *rand.Rand, ids []model.ProcID, nodes, k int) policy.Assignment {
	asgn := policy.Assignment{}
	for _, id := range ids {
		switch rng.Intn(4) {
		case 0:
			asgn[id] = policy.Reexecution(arch.NodeID(rng.Intn(nodes)), k)
		case 1:
			asgn[id] = policy.Checkpointed(arch.NodeID(rng.Intn(nodes)), k, 1+rng.Intn(2))
		default:
			perm := rng.Perm(nodes)
			r := 2 + rng.Intn(nodes-1)
			if r > k+1 {
				r = k + 1
			}
			sel := make([]arch.NodeID, r)
			for i := range sel {
				sel[i] = arch.NodeID(perm[i])
			}
			asgn[id] = policy.Distribute(sel, k)
		}
	}
	return asgn
}

// TestBuildIntoMatchesBuild is the bit-identical guarantee of the
// scratch arena: over a stream of random assignments, a single reused
// Scratch must reproduce every analysis number of the allocating Build —
// makespan, tardiness, per-process completions and every per-item field
// including the full survive rows. Only transmission labels may differ
// (scratch builds skip them).
func TestBuildIntoMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range []struct{ procs, nodes int }{{6, 2}, {10, 3}, {14, 4}} {
		in, ids := scratchSystem(t, rng, shape.procs, shape.nodes)
		st, err := NewStatic(in)
		if err != nil {
			t.Fatal(err)
		}
		in.Static = st
		sc := NewScratch()
		for round := 0; round < 25; round++ {
			in.Assignment = randomAssignment(rng, ids, shape.nodes, in.Faults.K)
			fresh, err := Build(in)
			if err != nil {
				t.Fatalf("Build round %d: %v", round, err)
			}
			reused, err := BuildInto(sc, in)
			if err != nil {
				t.Fatalf("BuildInto round %d: %v", round, err)
			}
			if fresh.Makespan != reused.Makespan || fresh.Tardiness != reused.Tardiness {
				t.Fatalf("round %d: scratch cost (δ=%v tardy=%v) != fresh (δ=%v tardy=%v)",
					round, reused.Makespan, reused.Tardiness, fresh.Makespan, fresh.Tardiness)
			}
			if fresh.Ex.NumInstances() != reused.Ex.NumInstances() {
				t.Fatalf("round %d: instance counts differ", round)
			}
			for i, fit := range fresh.Items() {
				rit := reused.Items()[i]
				if fit.NominalStart != rit.NominalStart || fit.NominalFinish != rit.NominalFinish ||
					fit.WCFinish != rit.WCFinish || fit.SendReady != rit.SendReady ||
					fit.GuaranteedReady != rit.GuaranteedReady || fit.NodePos != rit.NodePos ||
					fit.Bind != rit.Bind || fit.BindOn != rit.BindOn {
					t.Fatalf("round %d item %d: scratch %+v != fresh %+v", round, i, rit, fit)
				}
				for f := 0; f <= in.Faults.K; f++ {
					if fit.WCRow(f) != rit.WCRow(f) {
						t.Fatalf("round %d item %d: survive row differs at f=%d", round, i, f)
					}
				}
				if len(fit.Msgs) != len(rit.Msgs) {
					t.Fatalf("round %d item %d: %d msgs vs %d", round, i, len(rit.Msgs), len(fit.Msgs))
				}
				for idx, ftr := range fit.Msgs {
					rtr := rit.Msgs[idx]
					if ftr.Round != rtr.Round || ftr.Slot != rtr.Slot ||
						ftr.Start != rtr.Start || ftr.Arrival != rtr.Arrival || ftr.Bytes != rtr.Bytes {
						t.Fatalf("round %d item %d msg %d: scratch %v != fresh %v", round, i, idx, rtr, ftr)
					}
				}
			}
			for _, p := range in.Graph.Processes() {
				if fresh.proc(p.ID) != reused.proc(p.ID) {
					t.Fatalf("round %d: completion of %v differs", round, p)
				}
			}
		}
	}
}

// TestBuildIntoSteadyStateAllocs pins the point of the arena: after
// warm-up, a scratch build allocates (nearly) nothing, and in any case
// far less than the allocating Build of the same assignment.
func TestBuildIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, ids := scratchSystem(t, rng, 12, 3)
	st, err := NewStatic(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Static = st
	in.Assignment = randomAssignment(rng, ids, 3, in.Faults.K)

	sc := NewScratch()
	for i := 0; i < 3; i++ { // warm the arena
		if _, err := BuildInto(sc, in); err != nil {
			t.Fatal(err)
		}
	}
	scratchAllocs := testing.AllocsPerRun(50, func() {
		if _, err := BuildInto(sc, in); err != nil {
			t.Fatal(err)
		}
	})
	freshAllocs := testing.AllocsPerRun(50, func() {
		if _, err := Build(in); err != nil {
			t.Fatal(err)
		}
	})
	if scratchAllocs > freshAllocs/10 {
		t.Errorf("scratch build allocates %.1f/op, fresh %.1f/op — arena not effective", scratchAllocs, freshAllocs)
	}
	t.Logf("allocs/op: scratch %.1f vs fresh %.1f", scratchAllocs, freshAllocs)
}

// referenceCriticalPath is the critical-path walk as it was before the
// append variant: a fresh chain and a visited set per call. walked is
// the number of instances the walk met.
func referenceCriticalPath(s *Schedule) (path []model.ProcID, walked int) {
	if len(s.items) == 0 {
		return nil, 0
	}
	var chain []model.ProcID
	seenInst := make([]bool, len(s.items))
	cur := s.proc(s.worstProc).bindOn
	for cur != NoInst && !seenInst[cur] {
		seenInst[cur] = true
		it := s.items[cur]
		chain = append(chain, it.Inst.Proc.Origin)
		switch it.Bind {
		case BindPrevOnNode, BindInput:
			cur = it.BindOn
		default:
			cur = NoInst
		}
	}
	walked = len(chain)
	slices.Reverse(chain)
	out := chain[:0]
	for _, id := range chain {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out, walked
}

// multiRateSystem is scratchSystem's shape over two graphs whose
// periods differ, so the merged graph holds several processes per
// origin.
func multiRateSystem(t *testing.T, rng *rand.Rand, nodes int) (Input, []model.ProcID) {
	t.Helper()
	app := model.NewApplication("multirate")
	a := arch.New(nodes)
	w := arch.NewWCET()
	var ids []model.ProcID
	for gi, period := range []int64{40, 120} {
		g := app.AddGraph(fmt.Sprintf("G%d", gi), model.Ms(period), model.Ms(period))
		var prev *model.Process
		for i := 0; i < 4; i++ {
			p := app.AddProcess(g, fmt.Sprintf("G%dP%d", gi, i))
			for n := 0; n < nodes; n++ {
				w.Set(p.ID, arch.NodeID(n), model.Ms(int64(1+rng.Intn(3))))
			}
			if prev != nil {
				g.AddEdge(prev, p, 1+rng.Intn(4))
			}
			prev = p
			ids = append(ids, p.ID)
		}
	}
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Graph:   merged,
		Arch:    a,
		WCET:    w,
		Faults:  fault.Model{K: 2, Mu: model.Ms(1), Chi: model.Ms(1)},
		Bus:     ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: Options{SlackSharing: true},
	}, ids
}

// TestAppendCriticalPath holds CriticalPath and AppendCriticalPath to
// referenceCriticalPath on fresh and arena schedules of random systems,
// one of them multi-rate: the same path, appended after whatever dst
// held; a walk that meets at most one instance per merged-graph
// process; and no allocation when dst has room for that many entries.
func TestAppendCriticalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	repeats := 0
	for _, system := range []func() (Input, []model.ProcID){
		func() (Input, []model.ProcID) { return scratchSystem(t, rng, 6, 2) },
		func() (Input, []model.ProcID) { return scratchSystem(t, rng, 10, 3) },
		func() (Input, []model.ProcID) { return scratchSystem(t, rng, 14, 4) },
		func() (Input, []model.ProcID) { return multiRateSystem(t, rng, 3) },
	} {
		in, ids := system()
		st, err := NewStatic(in)
		if err != nil {
			t.Fatal(err)
		}
		in.Static = st
		sc := NewScratch()
		procs := in.Graph.NumProcesses()
		buf := make([]model.ProcID, 0, 2+procs)
		for round := 0; round < 25; round++ {
			in.Assignment = randomAssignment(rng, ids, in.Arch.NumNodes(), in.Faults.K)
			fresh, err := Build(in)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := BuildInto(sc, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Schedule{fresh, reused} {
				want, walked := referenceCriticalPath(s)
				if walked > procs {
					t.Fatalf("round %d: the walk met %d instances, more than the %d processes", round, walked, procs)
				}
				if walked > len(want) {
					repeats++
				}
				if got := s.CriticalPath(); !slices.Equal(got, want) {
					t.Fatalf("round %d: CriticalPath %v, reference %v", round, got, want)
				}
				prefix := []model.ProcID{-7, -8}
				got := s.AppendCriticalPath(append(buf[:0], prefix...))
				if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
					t.Fatalf("round %d: AppendCriticalPath after %v gave %v, want the prefix then %v",
						round, prefix, got, want)
				}
				if allocs := testing.AllocsPerRun(10, func() { s.AppendCriticalPath(buf[:0]) }); allocs != 0 {
					t.Fatalf("round %d: AppendCriticalPath into a buffer with room allocates %.0f objects", round, allocs)
				}
			}
		}
	}
	if repeats == 0 {
		t.Error("no walk met an origin twice; the deduplication went unchecked")
	}
}
