// Micro-benchmarks of the scheduling substrate: the throughput of one
// fault-tolerant list scheduling + worst-case analysis pass, the inner
// loop of the optimization. The experiment-level benchmarks that
// regenerate the paper's tables live at the module root against the
// public ftdse API.
package sched_test

import (
	"fmt"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/gen"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

// schedulerInput builds one representative scheduling input per size for
// the micro-benchmarks: a deterministic mixed policy assignment (every
// third process replicated over min(k+1, nodes) nodes, the rest
// re-executed) on a generated application.
func schedulerInput(b *testing.B, procs, nodes, k int) sched.Input {
	b.Helper()
	prob := gen.Problem(gen.Spec{Procs: procs, Nodes: nodes, Seed: 5},
		fault.Model{K: k, Mu: model.Ms(5)})
	merged, err := prob.App.Merge()
	if err != nil {
		b.Fatal(err)
	}
	asgn := policy.Assignment{}
	for i, p := range prob.App.Processes() {
		if i%3 == 0 {
			r := k + 1
			if nodes < r {
				r = nodes
			}
			replicaNodes := make([]arch.NodeID, r)
			for j := range replicaNodes {
				replicaNodes[j] = arch.NodeID((i + j) % nodes)
			}
			asgn[p.ID] = policy.Distribute(replicaNodes, k)
		} else {
			asgn[p.ID] = policy.Reexecution(arch.NodeID(i%nodes), k)
		}
	}
	in := sched.Input{
		Graph:      merged,
		Arch:       prob.Arch,
		WCET:       prob.WCET,
		Faults:     prob.Faults,
		Assignment: asgn,
		Bus:        ttp.InitialConfig(prob.Arch, merged.MaxMessageBytes(), ttp.DefaultPerByte),
		Options:    sched.DefaultOptions(),
	}
	st, err := sched.NewStatic(in)
	if err != nil {
		b.Fatal(err)
	}
	in.Static = st
	return in
}

// BenchmarkScheduler measures the throughput of one fault-tolerant list
// scheduling + worst-case analysis pass.
func BenchmarkScheduler(b *testing.B) {
	for _, dim := range []struct{ procs, nodes, k int }{
		{20, 2, 3}, {60, 4, 5}, {100, 6, 7},
	} {
		in := schedulerInput(b, dim.procs, dim.nodes, dim.k)
		b.Run(fmt.Sprintf("%dprocs", dim.procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Build(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerScratch measures the same pass through a warm
// scratch arena (sched.BuildInto), the path the optimizer's move
// evaluator takes for every candidate.
func BenchmarkSchedulerScratch(b *testing.B) {
	for _, dim := range []struct{ procs, nodes, k int }{
		{20, 2, 3}, {60, 4, 5}, {100, 6, 7},
	} {
		in := schedulerInput(b, dim.procs, dim.nodes, dim.k)
		b.Run(fmt.Sprintf("%dprocs", dim.procs), func(b *testing.B) {
			sc := sched.NewScratch()
			for i := 0; i < b.N; i++ {
				if _, err := sched.BuildInto(sc, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
