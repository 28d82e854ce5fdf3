package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/gen"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

// referenceListOrder is the ready-list extraction every build ran before
// the list order moved into Static: in-degree counts, and a ready list
// scanned for the highest priority (ties: smaller ProcID) at each step,
// with the extracted entry's hole filled by the last one.
func referenceListOrder(g *model.Graph, prio []model.Time) []model.ProcID {
	adj := g.Adjacency()
	indeg := make([]int, adj.NumIDs())
	ready := make([]model.ProcID, g.NumProcesses())
	nready := 0
	for _, p := range g.Processes() {
		indeg[p.ID] = len(adj.Predecessors(p.ID))
		if indeg[p.ID] == 0 {
			ready[nready] = p.ID
			nready++
		}
	}
	var order []model.ProcID
	for nready > 0 {
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
		order = append(order, id)
		for _, e := range adj.Successors(id) {
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				ready[nready] = e.Dst
				nready++
			}
		}
	}
	return order
}

// checkListOrder compares the Static's list order of an application
// with referenceListOrder and reports whether the priorities tie.
func checkListOrder(t *testing.T, name string, app *model.Application, a *arch.Architecture, w *arch.WCET) (tied bool) {
	t.Helper()
	merged, err := app.Merge()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	in := sched.Input{
		Graph:  merged,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: 2, Mu: model.Ms(5)},
		Bus:    ttp.InitialConfig(a, merged.MaxMessageBytes(), ttp.DefaultPerByte),
	}
	st, err := sched.NewStatic(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prio := sched.BottomLevels(in)
	want := referenceListOrder(merged, prio)
	if got := st.ListOrder(); !slices.Equal(got, want) {
		t.Fatalf("%s: list order\n%v\nreference\n%v", name, got, want)
	}
	if len(want) != merged.NumProcesses() {
		t.Fatalf("%s: the reference placed %d of %d processes", name, len(want), merged.NumProcesses())
	}
	// The Static sorts by priority alone, which is the ready list's order
	// only while every process outranks its successors.
	for _, e := range merged.Edges() {
		if prio[e.Src] <= prio[e.Dst] {
			t.Fatalf("%s: edge %v: priority %v does not exceed its successor's %v", name, e, prio[e.Src], prio[e.Dst])
		}
	}
	seen := make(map[model.Time]bool)
	for _, p := range merged.Processes() {
		tied = tied || seen[prio[p.ID]]
		seen[prio[p.ID]] = true
	}
	return tied
}

// TestListOrderMatchesReadyList holds the list order NewStatic computes
// to the per-build ready-list extraction it replaced, on generated
// applications of every shape, WCET distribution and size of the
// paper's evaluation, and on hand-made graphs whose priorities tie:
// several equal sources, a symmetric diamond, and a merged hyper-period
// whose instances of one process share its priority. The hand-made
// graphs give every process the smallest WCET, one time unit, so a
// process outranks its successors by as little as a valid input allows.
func TestListOrderMatchesReadyList(t *testing.T) {
	ties := 0
	for _, shape := range []gen.Shape{gen.Random, gen.Tree, gen.Chains} {
		for _, dist := range []gen.Dist{gen.Uniform, gen.Exponential} {
			for _, procs := range []int{5, 20, 40, 60, 80, 100} {
				for seed := int64(1); seed <= 3; seed++ {
					spec := gen.Spec{Procs: procs, Nodes: 2 + procs/25, Shape: shape, WCETDist: dist, Seed: seed}
					app, a, w := gen.Generate(spec)
					if checkListOrder(t, fmt.Sprintf("%v/%v/%d/seed%d", shape, dist, procs, seed), app, a, w) {
						ties++
					}
				}
			}
		}
	}

	// Four equal sources feeding a symmetric diamond: every level ties.
	app := model.NewApplication("ties")
	g := app.AddGraph("G", model.Ms(1000), model.Ms(1000))
	a := arch.New(2)
	w := arch.NewWCET()
	add := func(g *model.Graph, name string) *model.Process {
		p := app.AddProcess(g, name)
		for n := 0; n < a.NumNodes(); n++ {
			w.Set(p.ID, arch.NodeID(n), 1)
		}
		return p
	}
	var srcs []*model.Process
	for i := 0; i < 4; i++ {
		srcs = append(srcs, add(g, fmt.Sprintf("S%d", i)))
	}
	left, right, sink := add(g, "L"), add(g, "R"), add(g, "T")
	for _, s := range srcs {
		g.AddEdge(s, left, 2)
		g.AddEdge(s, right, 2)
	}
	g.AddEdge(left, sink, 2)
	g.AddEdge(right, sink, 2)
	if !checkListOrder(t, "diamond", app, a, w) {
		t.Error("the diamond's priorities do not tie")
	}

	// Two rates: the merged graph repeats the fast chain three times in
	// the hyper-period, and each repetition shares its priorities.
	app = model.NewApplication("hyperperiod")
	w = arch.NewWCET()
	for gi, period := range []int64{40, 120} {
		g := app.AddGraph(fmt.Sprintf("G%d", gi), model.Ms(period), model.Ms(period))
		var prev *model.Process
		for i := 0; i < 3; i++ {
			p := add(g, fmt.Sprintf("G%dP%d", gi, i))
			if prev != nil {
				g.AddEdge(prev, p, 1)
			}
			prev = p
		}
	}
	if !checkListOrder(t, "hyperperiod", app, a, w) {
		t.Error("the hyper-period's priorities do not tie")
	}
	if ties == 0 {
		t.Error("no generated application has tied priorities; the tie-break went unchecked")
	}
}
