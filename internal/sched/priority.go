package sched

import (
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/ttp"
)

// BottomLevels computes the modified partial-critical-path priority of
// [6] used by the list scheduler: the length of the longest path from a
// process to any sink, where process cost is the mapping-independent
// average WCET and edge cost is an estimate of the bus delay (payload
// transmission plus half a TDMA round of expected waiting). Higher
// values mean more urgent. The optimizer reuses it for utilization-
// balanced initial mapping. The result is indexed by ProcID.
func BottomLevels(in Input) []model.Time {
	g := in.Graph
	order, err := g.TopologicalOrder()
	if err != nil {
		// Input.Validate rejects cyclic graphs before we get here.
		panic("sched: bottomLevels on cyclic graph")
	}
	adj := g.Adjacency()
	half := in.Bus.RoundLength() / 2
	bl := make([]model.Time, adj.NumIDs())
	for i := len(order) - 1; i >= 0; i-- {
		p := order[i]
		avg, ok := in.WCET.Average(p.Origin)
		if !ok {
			avg = 0
		}
		best := model.Time(0)
		for _, e := range adj.Successors(p.ID) {
			est := model.Time(e.Bytes)*in.Bus.PerByte + half + bl[e.Dst]
			if est > best {
				best = est
			}
		}
		bl[p.ID] = avg + best
	}
	return bl
}

// msgEstimate is the mapping-independent bus-delay estimate used by the
// priority function, exported within the package for tests.
func msgEstimate(bytes int, bus ttp.Config) model.Time {
	return model.Time(bytes)*bus.PerByte + bus.RoundLength()/2
}
