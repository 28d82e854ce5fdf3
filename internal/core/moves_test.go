package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// referenceMoves is the neighborhood generator as it was before the
// neighborhood became countable: per-kind loops that clone one policy
// per move and drop any move equal to the current policy. filtered
// counts the moves that filter dropped.
func referenceMoves(st *searchState, asgn policy.Assignment, procs []model.ProcID) (out []Move, filtered int) {
	k := st.p.Faults.K
	for _, id := range procs {
		cur, ok := asgn[id]
		if !ok {
			continue
		}
		freedom := st.p.freedomOf(id, st.opts.Strategy)
		allowed := st.p.WCET.AllowedNodes(id)
		_, pinned := st.p.FixedMapping[id]

		appendMove := func(pol policy.Policy) {
			if pol.Equal(cur) {
				filtered++
				return
			}
			out = append(out, Move{proc: id, pol: pol})
		}

		for ri := range cur.Replicas {
			if ri == 0 && pinned {
				continue
			}
			for _, n := range allowed {
				if cur.UsesNode(n) {
					continue
				}
				pol := cur.Clone()
				pol.Replicas[ri].Node = n
				appendMove(pol)
			}
		}

		if st.opts.EnableCheckpointing && k > 0 && freedom != freeRepl {
			for ri := range cur.Replicas {
				rep := cur.Replicas[ri]
				if rep.Reexec == 0 {
					continue
				}
				if rep.Checkpoints < 4 {
					pol := cur.Clone()
					pol.Replicas[ri].Checkpoints++
					appendMove(pol)
				}
				if rep.Checkpoints > 0 {
					pol := cur.Clone()
					pol.Replicas[ri].Checkpoints--
					appendMove(pol)
				}
			}
		}

		if freedom != freeAny || k == 0 {
			continue
		}

		if len(cur.Replicas) < k+1 {
			for _, n := range allowed {
				if cur.UsesNode(n) {
					continue
				}
				nodes := append(cur.Nodes(), n)
				appendMove(policy.Distribute(nodes, k))
			}
		}
		if len(cur.Replicas) > 1 {
			for ri := range cur.Replicas {
				if ri == 0 && pinned {
					continue
				}
				nodes := make([]arch.NodeID, 0, len(cur.Replicas)-1)
				for rj, rep := range cur.Replicas {
					if rj != ri {
						nodes = append(nodes, rep.Node)
					}
				}
				appendMove(policy.Distribute(nodes, k))
			}
		}
	}
	return out, filtered
}

// neighborhoodCase draws a problem for the neighborhood cross-check:
// 2–10 processes on 1–5 nodes with k = 0–3, WCET rows with missing
// entries (some rows shorter than the architecture), pinned, forced
// re-execution and forced replication processes, and one of the five
// strategies with checkpointing on or off.
func neighborhoodCase(t *testing.T, rng *rand.Rand) (*searchState, Problem) {
	t.Helper()
	nProcs, nNodes, k := 2+rng.Intn(9), 1+rng.Intn(5), rng.Intn(4)
	app := model.NewApplication("hood")
	g := app.AddGraph("G", model.Ms(100000), model.Ms(100000))
	w := arch.NewWCET()
	var prev *model.Process
	p := Problem{Arch: arch.New(nNodes), WCET: w, Faults: fault.Model{K: k, Mu: model.Ms(5)},
		ForceReexecution: map[model.ProcID]bool{}, ForceReplication: map[model.ProcID]bool{},
		FixedMapping: map[model.ProcID]arch.NodeID{}}
	for i := 0; i < nProcs; i++ {
		proc := app.AddProcess(g, "P")
		if prev != nil && rng.Intn(2) == 0 {
			g.AddEdge(prev, proc, 1+rng.Intn(4))
		}
		prev = proc
		span := 1 + rng.Intn(nNodes)
		must := rng.Intn(span)
		var allowed []arch.NodeID
		for n := 0; n < span; n++ {
			if n == must || rng.Intn(10) < 7 {
				w.Set(proc.ID, arch.NodeID(n), model.Ms(int64(10+rng.Intn(50))))
				allowed = append(allowed, arch.NodeID(n))
			}
		}
		switch rng.Intn(8) {
		case 0:
			p.FixedMapping[proc.ID] = allowed[rng.Intn(len(allowed))]
		case 1:
			p.ForceReexecution[proc.ID] = true
		case 2:
			p.ForceReplication[proc.ID] = true
		}
	}
	p.App = app
	opts := DefaultOptions([]Strategy{MXR, MX, MR, SFX, NFT}[rng.Intn(5)])
	opts.EnableCheckpointing = rng.Intn(2) == 0
	st, err := newSearchState(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, p
}

// neighborhoodDesign draws a design that need not be valid: a process
// may be absent or have no replica, replicas sit on distinct allowed
// nodes in random order (a pinned process's first one on its node most
// of the time) with random re-execution and checkpoint counts, the
// latter sometimes above the checkpoint bound.
func neighborhoodDesign(rng *rand.Rand, st *searchState) policy.Assignment {
	d := policy.Assignment{}
	for _, id := range st.origins {
		if rng.Intn(12) == 0 {
			continue
		}
		allowed := st.p.WCET.AllowedNodes(id)
		rng.Shuffle(len(allowed), func(i, j int) { allowed[i], allowed[j] = allowed[j], allowed[i] })
		if pin, ok := st.p.FixedMapping[id]; ok && rng.Intn(4) != 0 {
			for i, n := range allowed {
				if n == pin {
					allowed[0], allowed[i] = allowed[i], allowed[0]
				}
			}
		}
		var pol policy.Policy
		for _, n := range allowed[:rng.Intn(len(allowed)+1)] {
			pol.Replicas = append(pol.Replicas, policy.Replica{
				Node:        n,
				Reexec:      rng.Intn(st.p.Faults.K + 1),
				Checkpoints: rng.Intn(7),
			})
		}
		if len(pol.Replicas) == 0 && rng.Intn(4) != 0 {
			pol = policy.Reexecution(allowed[0], st.p.Faults.K)
		}
		d[id] = pol
	}
	return d
}

// TestNeighborhoodMatchesReference pins the neighborhood's order to
// referenceMoves over 12k random (problem, design) pairs covering every
// strategy, checkpointing on and off, pinned, forced re-execution and
// forced replication processes, and k = 0: per process, the counted
// size equals the reference's move count and every index builds the
// reference's move, into a reused buffer holding stale replicas,
// without touching the design; generateMoves over the origins and over
// a random process list with repeats equals the reference; and the
// reference's equal-policy filter never fires.
func TestNeighborhoodMatchesReference(t *testing.T) {
	const pairs = 12_000
	rng := rand.New(rand.NewSource(17))
	seen := make(map[string]int)
	buf := make([]policy.Replica, 0, 8)
	var st *searchState
	var p Problem
	for n := 0; n < pairs; n++ {
		if n%40 == 0 {
			st, p = neighborhoodCase(t, rng)
			seen["strategy "+st.opts.Strategy.String()]++
			if p.Faults.K == 0 {
				seen["k = 0"]++
			}
			if st.opts.EnableCheckpointing {
				seen["checkpointing on"]++
			} else {
				seen["checkpointing off"]++
			}
		}
		d := neighborhoodDesign(rng, st)
		before := d.Clone()
		for _, id := range st.origins {
			want, filtered := referenceMoves(st, d, []model.ProcID{id})
			if filtered != 0 {
				t.Fatalf("pair %d: the reference dropped %d moves of process %d equal to its policy", n, filtered, id)
			}
			h, ok := st.hoodOf(d, id)
			if _, present := d[id]; ok != present {
				t.Fatalf("pair %d: hoodOf(%d) ok=%v for a process present=%v", n, id, ok, present)
			}
			if h.size != len(want) {
				t.Fatalf("pair %d: process %d with %v counts %d moves, reference %d: %v",
					n, id, d[id], h.size, len(want), want)
			}
			for i := range want {
				buf = buf[:cap(buf)]
				for j := range buf {
					buf[j] = policy.Replica{Node: 99, Reexec: 9, Checkpoints: 9}
				}
				got := policy.Policy{Replicas: h.build(buf[:0], i)}
				if !got.Equal(want[i].pol) {
					t.Fatalf("pair %d: move %d of process %d with %v is %v, reference %v",
						n, i, id, d[id], got, want[i].pol)
				}
				seen[moveKind(d, want[i])]++
			}
			if h.size > 0 {
				switch _, pinned := p.FixedMapping[id]; {
				case pinned:
					seen["pinned process"]++
				case p.ForceReexecution[id]:
					seen["forced re-execution"]++
				case p.ForceReplication[id]:
					seen["forced replication"]++
				}
			}
		}
		if !reflect.DeepEqual(d, before) {
			t.Fatalf("pair %d: building moves changed the design", n)
		}
		procs := append([]model.ProcID(nil), st.origins...)
		rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
		procs = append(procs[:rng.Intn(len(procs)+1)], procs[0], model.ProcID(len(st.origins)+3))
		for _, list := range [][]model.ProcID{st.origins, procs} {
			want, _ := referenceMoves(st, d, list)
			if got := st.generateMoves(d, list); !reflect.DeepEqual(got, want) {
				t.Fatalf("pair %d: generateMoves(%v) differs from the reference", n, list)
			}
		}
	}
	for _, kind := range []string{"remap", "checkpoint", "add replica", "drop replica",
		"pinned process", "forced re-execution", "forced replication", "k = 0",
		"checkpointing on", "checkpointing off",
		"strategy MXR", "strategy MX", "strategy MR", "strategy SFX", "strategy NFT"} {
		if seen[kind] == 0 {
			t.Errorf("no %s was checked", kind)
		}
	}
	t.Logf("checked: %v", seen)
}
