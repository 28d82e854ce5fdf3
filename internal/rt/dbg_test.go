package rt

import (
	"math/rand"
	"testing"

	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/sim"
)

func TestDebugMismatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomSystem(rng, 3+rng.Intn(7), 2+rng.Intn(2), 1+rng.Intn(2))
		s, err := sched.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		if sim.ScenarioCount(s) > 3000 {
			continue
		}
		sim.ForEachScenario(s, func(sc sim.Scenario) bool {
			a := sim.Run(s, sc)
			b := Run(s, sc)
			if a.Makespan != b.Makespan {
				t.Logf("seed %d scenario %v", seed, sc)
				for _, it := range s.Items() {
					id := it.Inst.ID
					t.Logf("  %-6s node %d pos %d nomStart %v | sim alive=%v fin=%v | rt alive=%v fin=%v",
						it.Inst.Name(), it.Inst.Node, it.NodePos, it.NominalStart,
						a.Alive[id], a.Finish[id], b.Alive[id], b.Finish[id])
					for _, m := range it.Msgs {
						t.Logf("      msg e%d %v", m.Edge, m.Transmission)
					}
				}
				for _, e := range s.In.Graph.Edges() {
					t.Logf("  edge %v", e)
				}
				return false
			}
			return true
		})
		if t.Failed() {
			return
		}
		_ = s
	}
	t.Log("no mismatch found?!")
}
