package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) (*Application, *Graph, []*Process) {
	t.Helper()
	app := NewApplication("diamond")
	g := app.AddGraph("G", Ms(100), Ms(100))
	p1 := app.AddProcess(g, "P1")
	p2 := app.AddProcess(g, "P2")
	p3 := app.AddProcess(g, "P3")
	p4 := app.AddProcess(g, "P4")
	g.AddEdge(p1, p2, 1)
	g.AddEdge(p1, p3, 2)
	g.AddEdge(p2, p4, 3)
	g.AddEdge(p3, p4, 4)
	return app, g, []*Process{p1, p2, p3, p4}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{Ms(40), "40ms"},
		{Us(12500), "12.500ms"},
		{0, "0ms"},
		{Infinity, "inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestGraphBasics(t *testing.T) {
	app, g, ps := buildDiamond(t)
	if err := app.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n := g.NumProcesses(); n != 4 {
		t.Fatalf("NumProcesses = %d, want 4", n)
	}
	if got := len(g.Successors(ps[0].ID)); got != 2 {
		t.Errorf("P1 successors = %d, want 2", got)
	}
	if got := len(g.Predecessors(ps[3].ID)); got != 2 {
		t.Errorf("P4 predecessors = %d, want 2", got)
	}
	for _, p := range ps {
		if source := len(g.Predecessors(p.ID)) == 0; source != (p == ps[0]) {
			t.Errorf("%v has no predecessors: %v, want only P1 to have none", p, source)
		}
		if sink := len(g.Successors(p.ID)) == 0; sink != (p == ps[3]) {
			t.Errorf("%v has no successors: %v, want only P4 to have none", p, sink)
		}
	}
	if g.MaxMessageBytes() != 4 {
		t.Errorf("MaxMessageBytes = %d, want 4", g.MaxMessageBytes())
	}
}

func TestTopologicalOrder(t *testing.T) {
	_, g, ps := buildDiamond(t)
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatalf("TopologicalOrder: %v", err)
	}
	pos := make(map[ProcID]int)
	for i, p := range order {
		pos[p.ID] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %v violates topological order", e)
		}
	}
	_ = ps
}

func TestCycleDetection(t *testing.T) {
	app := NewApplication("cyclic")
	g := app.AddGraph("G", Ms(10), Ms(10))
	a := app.AddProcess(g, "A")
	b := app.AddProcess(g, "B")
	g.AddEdge(a, b, 1)
	g.AddEdge(b, a, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a cyclic graph")
	}
	if _, err := g.TopologicalOrder(); err == nil {
		t.Fatal("TopologicalOrder accepted a cyclic graph")
	}
}

func TestValidateRejections(t *testing.T) {
	t.Run("non-positive period", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", 0, 0)
		app.AddProcess(g, "P")
		if err := g.Validate(); err == nil {
			t.Fatal("accepted zero period")
		}
	})
	t.Run("deadline exceeds period", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", Ms(10), Ms(20))
		app.AddProcess(g, "P")
		if err := g.Validate(); err == nil {
			t.Fatal("accepted deadline > period")
		}
	})
	t.Run("empty graph", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", Ms(10), Ms(10))
		if err := g.Validate(); err == nil {
			t.Fatal("accepted empty graph")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", Ms(10), Ms(10))
		p := app.AddProcess(g, "P")
		g.AddEdge(p, p, 1)
		if err := g.Validate(); err == nil {
			t.Fatal("accepted self loop")
		}
	})
	t.Run("duplicate edge", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", Ms(10), Ms(10))
		p := app.AddProcess(g, "P")
		q := app.AddProcess(g, "Q")
		g.AddEdge(p, q, 1)
		g.AddEdge(p, q, 2)
		if err := g.Validate(); err == nil {
			t.Fatal("accepted duplicate edge")
		}
	})
	t.Run("zero byte message", func(t *testing.T) {
		app := NewApplication("x")
		g := app.AddGraph("G", Ms(10), Ms(10))
		p := app.AddProcess(g, "P")
		q := app.AddProcess(g, "Q")
		g.AddEdge(p, q, 0)
		if err := g.Validate(); err == nil {
			t.Fatal("accepted zero-byte message")
		}
	})
}

// randomDAG builds a random acyclic graph by only adding forward edges
// over a random permutation.
func randomDAG(rng *rand.Rand, n int) (*Application, *Graph) {
	app := NewApplication("rand")
	g := app.AddGraph("G", Ms(1000), Ms(1000))
	ps := make([]*Process, n)
	for i := range ps {
		ps[i] = app.AddProcess(g, "P")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				g.AddEdge(ps[i], ps[j], 1+rng.Intn(4))
			}
		}
	}
	return app, g
}

func TestTopologicalOrderProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		rng := rand.New(rand.NewSource(seed))
		_, g := randomDAG(rng, n)
		order, err := g.TopologicalOrder()
		if err != nil {
			return false
		}
		if len(order) != n {
			return false
		}
		pos := make(map[ProcID]int)
		for i, p := range order {
			pos[p.ID] = i
		}
		for _, e := range g.Edges() {
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinTime(t *testing.T) {
	if MaxTime(Ms(3), Ms(5)) != Ms(5) || MaxTime(Ms(5), Ms(3)) != Ms(5) {
		t.Error("MaxTime wrong")
	}
	if MinTime(Ms(3), Ms(5)) != Ms(3) || MinTime(Ms(5), Ms(3)) != Ms(3) {
		t.Error("MinTime wrong")
	}
}

// TestAdjacencyArcs pins the arc contract the scheduler relies on: every
// arc carries its edge's position in Edges(), arcs of one process are in
// edge order, and IDs outside the graph read as absent.
func TestAdjacencyArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, g := randomDAG(rng, 25)
	a := g.Adjacency()
	seen := 0
	for _, p := range g.Processes() {
		for _, arcs := range [][]Arc{a.Successors(p.ID), a.Predecessors(p.ID)} {
			for i, arc := range arcs {
				if g.Edges()[arc.Index] != arc.Edge {
					t.Fatalf("arc %v has index %d, edge there is %v", arc.Edge, arc.Index, g.Edges()[arc.Index])
				}
				if i > 0 && arc.Index <= arcs[i-1].Index {
					t.Fatalf("arcs of %v not in edge order", p)
				}
				seen++
			}
		}
	}
	if seen != 2*len(g.Edges()) {
		t.Fatalf("adjacency holds %d arcs, want %d", seen, 2*len(g.Edges()))
	}
	for _, id := range []ProcID{-1, ProcID(a.NumIDs()), ProcID(a.NumIDs() + 7)} {
		if a.Process(id) != nil || a.Successors(id) != nil || a.Predecessors(id) != nil {
			t.Errorf("ID %d outside the graph is not absent", id)
		}
	}
}

// TestAdjacencyIDsNotFromZero: the second graph of an application has
// IDs above 0; its adjacency indexes them exactly and treats the first
// graph's IDs as foreign.
func TestAdjacencyIDsNotFromZero(t *testing.T) {
	app := NewApplication("two")
	g1 := app.AddGraph("G1", Ms(100), Ms(100))
	a1 := app.AddProcess(g1, "A")
	g2 := app.AddGraph("G2", Ms(100), Ms(100))
	b1 := app.AddProcess(g2, "B1")
	b2 := app.AddProcess(g2, "B2")
	g2.AddEdge(b1, b2, 2)
	adj := g2.Adjacency()
	if adj.Process(a1.ID) != nil || adj.Process(b1.ID) != b1 || adj.Process(b2.ID) != b2 {
		t.Fatal("second graph indexes the wrong processes")
	}
	if s := adj.Successors(b1.ID); len(s) != 1 || s[0].Dst != b2.ID || s[0].Index != 0 {
		t.Fatalf("successors of B1 = %v", s)
	}
	if app.Process(b2.ID) != b2 || g1.Process(b2.ID) != nil || g1.Process(a1.ID) != a1 {
		t.Fatal("application lookups across graphs broken")
	}
}

// TestGraphConcurrentFirstRead: goroutines reading a graph that nobody
// froze each see a complete adjacency (run under -race: reads must not
// write shared state), and a mutation afterwards is reflected.
func TestGraphConcurrentFirstRead(t *testing.T) {
	_, g, ps := buildDiamond(t)
	done := make(chan int, 4)
	for i := 0; i < cap(done); i++ {
		go func() {
			n := 0
			for _, p := range g.Processes() {
				if g.Process(p.ID) == p {
					n += len(g.Successors(p.ID)) + len(g.Predecessors(p.ID))
				}
			}
			done <- n
		}()
	}
	for i := 0; i < cap(done); i++ {
		if n := <-done; n != 8 {
			t.Fatalf("reader saw %d arcs, want 8", n)
		}
	}
	g.AddEdge(ps[0], ps[3], 1)
	if got := len(g.Successors(ps[0].ID)); got != 3 {
		t.Fatalf("after AddEdge P1 has %d successors, want 3", got)
	}
}
