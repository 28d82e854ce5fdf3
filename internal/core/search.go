package core

import (
	"context"
	"fmt"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

// searchState carries the immutable context of one optimization run.
// Everything except bus/static (swapped wholesale by the bus-access
// optimization) and the evaluator's memoization cache is read-only
// after construction, which is what allows the evaluator to fan
// sched.Build calls out over concurrent workers. Engines reach it
// through the Search handle; portfolio racers get a private state each
// (Search.Fork), so no searchState is ever shared between goroutines.
type searchState struct {
	p      Problem
	opts   Options
	merged *model.Graph
	bus    ttp.Config
	static *sched.Static // precomputed for the current bus configuration
	eval   *evaluator    // concurrent, memoizing move evaluation

	// rec is the run's flight recorder; nil (the default) disables
	// event capture. Forked racer states share the parent's recorder so
	// one trace covers the whole run.
	rec *flightRecorder

	// origins are the original (pre-merge) process IDs, sorted.
	origins []model.ProcID
	// prio is the priority of each origin: the maximum bottom level over
	// its merged instances. Used for the initial mapping order.
	prio map[model.ProcID]model.Time
}

// rebuildStatic revalidates and precomputes the scheduling context;
// called at construction and whenever the bus configuration changes.
// Memoized move evaluations are dropped: they are only valid for the
// bus configuration they were costed under.
func (st *searchState) rebuildStatic() error {
	s, err := sched.NewStatic(sched.Input{
		Graph:  st.merged,
		Arch:   st.p.Arch,
		WCET:   st.p.WCET,
		Faults: st.p.Faults,
		Bus:    st.bus,
	})
	if err != nil {
		return err
	}
	st.static = s
	if st.eval != nil {
		st.eval.invalidate()
	}
	return nil
}

func newSearchState(p Problem, opts Options) (*searchState, error) {
	merged, err := p.mergedGraph()
	if err != nil {
		return nil, err
	}
	bus := ttp.InitialConfig(p.Arch, merged.MaxMessageBytes(), ttp.DefaultPerByte)

	st := &searchState{p: p, opts: opts, merged: merged, bus: bus}
	if err := st.rebuildStatic(); err != nil {
		return nil, err
	}
	bl := sched.BottomLevels(sched.Input{Graph: merged, Arch: p.Arch, WCET: p.WCET, Bus: bus})
	st.prio = make(map[model.ProcID]model.Time)
	seen := make(map[model.ProcID]bool)
	for _, proc := range merged.Processes() {
		if bl[proc.ID] > st.prio[proc.Origin] {
			st.prio[proc.Origin] = bl[proc.ID]
		}
		if !seen[proc.Origin] {
			seen[proc.Origin] = true
			st.origins = append(st.origins, proc.Origin)
		}
	}
	sort.Slice(st.origins, func(i, j int) bool { return st.origins[i] < st.origins[j] })
	st.eval = newEvaluator(st, opts.Workers)
	return st, nil
}

// schedInput assembles the scheduler input for an assignment.
func (st *searchState) schedInput(asgn policy.Assignment) sched.Input {
	return sched.Input{
		Graph:      st.merged,
		Arch:       st.p.Arch,
		WCET:       st.p.WCET,
		Faults:     st.p.Faults,
		Assignment: asgn,
		Bus:        st.bus,
		Options:    sched.Options{SlackSharing: st.opts.SlackSharing},
		Static:     st.static,
	}
}

// evaluate schedules an assignment and returns its cost. The returned
// schedule is freshly allocated and may be retained (incumbents,
// materialized winners).
func (st *searchState) evaluate(asgn policy.Assignment) (*sched.Schedule, Cost, error) {
	s, err := sched.Build(st.schedInput(asgn))
	if err != nil {
		return nil, worstCost, err
	}
	return s, costOf(s), nil
}

// initialMPA is the paper's step 1 (line 2 of Figure 6): assign the
// default policy of the strategy to every free process and derive a
// mapping that balances the utilization among the nodes. Processes are
// mapped in decreasing priority order; each replica goes to the allowed
// node with the least accumulated load.
func (st *searchState) initialMPA() (policy.Assignment, error) {
	p := st.p
	k := p.Faults.K

	order := append([]model.ProcID(nil), st.origins...)
	sort.Slice(order, func(i, j int) bool {
		if st.prio[order[i]] != st.prio[order[j]] {
			return st.prio[order[i]] > st.prio[order[j]]
		}
		return order[i] < order[j]
	})

	load := make(map[arch.NodeID]model.Time, p.Arch.NumNodes())
	asgn := policy.Assignment{}
	for _, id := range order {
		allowed := p.WCET.AllowedNodes(id)
		freedom := p.freedomOf(id, st.opts.Strategy)
		var pol policy.Policy
		switch freedom {
		case freeRepl:
			// Maximal space redundancy: k+1 replicas when the allowed
			// nodes permit; otherwise one replica per allowed node with
			// the k+1 executions spread over them (pure replication
			// cannot tolerate k faults on fewer than k+1 nodes).
			r := k + 1
			if len(allowed) < r {
				if p.ForceReplication[id] {
					return nil, fmt.Errorf("core: process %d forced to replication needs %d nodes, has %d allowed",
						id, r, len(allowed))
				}
				r = len(allowed)
			}
			nodes := st.pickNodes(id, allowed, r, load)
			pol = policy.Distribute(nodes, k)
		default:
			nodes := st.pickNodes(id, allowed, 1, load)
			pol = policy.Reexecution(nodes[0], k)
		}
		for _, rep := range pol.Replicas {
			load[rep.Node] += p.WCET.MustGet(id, rep.Node)
		}
		asgn[id] = pol
	}
	return asgn, nil
}

// pickNodes selects r allowed nodes with the least accumulated load,
// honoring a fixed mapping of the first replica.
func (st *searchState) pickNodes(id model.ProcID, allowed []arch.NodeID, r int, load map[arch.NodeID]model.Time) []arch.NodeID {
	fixed, hasFixed := st.p.FixedMapping[id]
	cands := append([]arch.NodeID(nil), allowed...)
	sort.Slice(cands, func(i, j int) bool {
		li := load[cands[i]] + st.p.WCET.MustGet(id, cands[i])
		lj := load[cands[j]] + st.p.WCET.MustGet(id, cands[j])
		if li != lj {
			return li < lj
		}
		return cands[i] < cands[j]
	})
	var nodes []arch.NodeID
	if hasFixed {
		nodes = append(nodes, fixed)
	}
	for _, n := range cands {
		if len(nodes) == r {
			break
		}
		if hasFixed && n == fixed {
			continue
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// stopped reports whether the run should end: the context was canceled
// or its deadline (including Options.TimeLimit) expired. For a context
// that never fires this is a nil-channel select — effectively free —
// which preserves the untimed path's determinism and speed.
func stopped(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
