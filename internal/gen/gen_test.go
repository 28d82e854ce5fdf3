package gen

import (
	"testing"
	"testing/quick"

	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Procs: 20, Nodes: 3, Shape: Random, Seed: 5}
	a1, _, w1 := Generate(spec)
	a2, _, w2 := Generate(spec)
	if a1.NumProcesses() != a2.NumProcesses() {
		t.Fatal("process counts differ")
	}
	g1, g2 := a1.Graphs()[0], a2.Graphs()[0]
	if len(g1.Edges()) != len(g2.Edges()) {
		t.Fatal("edge counts differ")
	}
	for i, e := range g1.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("edges differ")
		}
	}
	for _, p := range a1.Processes() {
		for _, n := range w1.AllowedNodes(p.ID) {
			if w1.MustGet(p.ID, n) != w2.MustGet(p.ID, n) {
				t.Fatal("WCETs differ")
			}
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	t.Run("tree", func(t *testing.T) {
		app, _, _ := Generate(Spec{Procs: 30, Nodes: 2, Shape: Tree, Seed: 1})
		g := app.Graphs()[0]
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every non-root has exactly one parent.
		roots := 0
		for _, p := range g.Processes() {
			switch len(g.Predecessors(p.ID)) {
			case 0:
				roots++
			case 1:
			default:
				t.Fatalf("tree process %v has %d parents", p, len(g.Predecessors(p.ID)))
			}
		}
		if roots != 1 {
			t.Errorf("tree has %d roots, want 1", roots)
		}
		if len(g.Edges()) != 29 {
			t.Errorf("tree has %d edges, want 29", len(g.Edges()))
		}
	})
	t.Run("chains", func(t *testing.T) {
		app, _, _ := Generate(Spec{Procs: 20, Nodes: 2, Shape: Chains, Seed: 1, ChainCount: 4})
		g := app.Graphs()[0]
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Processes() {
			if len(g.Predecessors(p.ID)) > 1 || len(g.Successors(p.ID)) > 1 {
				t.Fatalf("chain process %v has fan-in/out", p)
			}
		}
		heads := 0
		for _, p := range g.Processes() {
			if len(g.Predecessors(p.ID)) == 0 {
				heads++
			}
		}
		if heads != 4 {
			t.Errorf("%d chains, want 4", heads)
		}
	})
	t.Run("random", func(t *testing.T) {
		app, _, _ := Generate(Spec{Procs: 40, Nodes: 2, Shape: Random, Seed: 2})
		g := app.Graphs()[0]
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(g.Edges()) == 0 {
			t.Error("random graph has no edges")
		}
	})
}

func TestGenerateRanges(t *testing.T) {
	f := func(seed int64, shape8, dist8 uint8) bool {
		spec := Spec{
			Procs:    15,
			Nodes:    3,
			Shape:    Shape(shape8 % 3),
			WCETDist: Dist(dist8 % 2),
			Seed:     seed,
		}
		app, a, w := Generate(spec)
		if err := app.Validate(); err != nil {
			return false
		}
		if a.NumNodes() != 3 {
			return false
		}
		g := app.Graphs()[0]
		for _, p := range g.Processes() {
			nodes := w.AllowedNodes(p.ID)
			if len(nodes) != 3 {
				return false
			}
			for _, n := range nodes {
				c := w.MustGet(p.ID, n)
				if c < model.Ms(10) || c > model.Ms(100) {
					return false
				}
			}
		}
		for _, e := range g.Edges() {
			if e.Bytes < 1 || e.Bytes > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProblemBundles(t *testing.T) {
	fm := fault.Model{K: 3, Mu: model.Ms(5)}
	p := Problem(Spec{Procs: 10, Nodes: 2, Seed: 9}, fm)
	if err := p.Validate(); err != nil {
		t.Fatalf("generated problem invalid: %v", err)
	}
	if p.Faults != fm {
		t.Error("fault model not propagated")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.withDefaults()
	if s.Procs != 20 || s.Nodes != 2 || s.WCETMin != model.Ms(10) || s.WCETMax != model.Ms(100) {
		t.Errorf("unexpected defaults: %+v", s)
	}
	if s.MsgMin != 1 || s.MsgMax != 4 {
		t.Errorf("unexpected message defaults: %+v", s)
	}
}
