// Package sim is a discrete-time execution simulator for synthesized
// fault-tolerant schedules: the counterpart of the real-time kernel and
// TTP controllers of the paper's Section 2.2. It executes the static
// schedule tables under a concrete transient-fault scenario, applying
// the runtime rules of the paper:
//
//   - a process starts at its table time, delayed only by its node being
//     busy (contingency switch after local faults) or by its inputs not
//     yet being valid (waiting for the first valid replica message);
//   - a faulty execution is detected at its end, costs µ of recovery,
//     and is re-executed if the replica has re-execution budget left,
//     otherwise the replica dies;
//   - messages leave in their fixed MEDL slots; a frame carries valid
//     data only if its sender replica completed before the slot starts.
//
// The simulator is the ground truth against which the scheduler's
// worst-case analysis is validated: for every scenario within the fault
// hypothesis, actual completions must stay below the analysis bounds and
// all deadlines of a schedulable design must hold.
package sim

import (
	"fmt"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// Scenario assigns a number of transient faults to replica instances;
// instances absent from the map run fault-free. Faults hit consecutive
// execution attempts of the instance (worst case: detection at the end
// of each attempt).
type Scenario map[policy.InstID]int

// Result is the outcome of one simulated operation cycle.
type Result struct {
	// Finish is the completion time of every surviving instance.
	Finish map[policy.InstID]model.Time
	// Alive reports whether an instance produced valid output.
	Alive map[policy.InstID]bool
	// ProcDone is the first valid completion per merged-graph process.
	ProcDone map[model.ProcID]model.Time
	// Violations lists everything that went wrong: starved processes,
	// missed deadlines, messages sent before their data was ready.
	Violations []string
	// Makespan is the latest first-valid completion.
	Makespan model.Time
}

// OK reports whether the cycle completed with every process producing a
// result on time.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Run executes the schedule under the scenario and returns the observed
// timings.
func Run(s *sched.Schedule, sc Scenario) *Result {
	r := &Result{
		Finish:   make(map[policy.InstID]model.Time),
		Alive:    make(map[policy.InstID]bool),
		ProcDone: make(map[model.ProcID]model.Time),
	}
	in := s.In
	ex := s.Ex
	mu := in.Faults.Mu

	// Dependencies: an instance can be simulated once its process
	// predecessors' instances and its node predecessor are done.
	blocked := make(map[policy.InstID]int, len(s.Items()))
	dependents := make(map[policy.InstID][]policy.InstID)
	nodeFree := make(map[arch.NodeID]model.Time, in.Arch.NumNodes())
	for _, it := range s.Items() {
		id := it.Inst.ID
		deps := 0
		for _, e := range in.Graph.Predecessors(it.Inst.Proc.ID) {
			for _, src := range ex.Of(e.Src) {
				deps++
				dependents[src.ID] = append(dependents[src.ID], id)
			}
		}
		if it.NodePos > 0 {
			prev := s.NodeSequence(it.Inst.Node)[it.NodePos-1]
			deps++
			dependents[prev.Inst.ID] = append(dependents[prev.Inst.ID], id)
		}
		blocked[id] = deps
	}
	var ready []policy.InstID
	for _, it := range s.Items() {
		if blocked[it.Inst.ID] == 0 {
			ready = append(ready, it.Inst.ID)
		}
	}

	simulated := 0
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		simulated++

		it := s.Item(id)
		inst := it.Inst
		start, starved := r.readyTime(s, it)
		if starved {
			r.Violations = append(r.Violations,
				fmt.Sprintf("instance %s starved: no valid input in this scenario", inst))
			// The node stays idle for this instance; mark dead.
			r.Alive[id] = false
		} else {
			if nf := nodeFree[inst.Node]; nf > start {
				start = nf
			}
			if it.NominalStart > start {
				start = it.NominalStart
			}
			faults := sc[id]
			exec := inst.ExecTime(in.Faults.Chi)
			recover := inst.RecoverTime(mu)
			if faults <= inst.Reexec {
				// Survives after recovering from `faults` faults (each
				// re-executes the hit segment: the whole process without
				// checkpoints, one segment with them).
				fin := start + exec + model.Time(faults)*recover
				r.Finish[id] = fin
				r.Alive[id] = true
				nodeFree[inst.Node] = fin
			} else {
				// Dies after exhausting its recoveries: all but the last
				// segment complete, then the fatal fault chain occupies
				// the node for x·d + µ more.
				r.Alive[id] = false
				nodeFree[inst.Node] = start + exec + model.Time(inst.Reexec)*recover + mu
			}
		}
		for _, dep := range dependents[id] {
			blocked[dep]--
			if blocked[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if simulated != len(s.Items()) {
		r.Violations = append(r.Violations, "internal: dependency cycle in simulation order")
		return r
	}

	// Note on message discipline: a surviving sender may legitimately
	// miss its fixed MEDL slot when the faults hitting its node exceed
	// its own re-execution count (the transmission rule only guarantees
	// the slot under at most Reexec node-local faults). The frame then
	// carries invalid data and receivers ignore it — the sender simply
	// looks dead downstream, which the readiness rule above models, and
	// which the scheduler's kill-cost analysis charges the adversary
	// Reexec+1 faults for.

	// Per-process completion and deadlines.
	for _, p := range in.Graph.Processes() {
		first := model.Infinity
		for _, inst := range ex.Of(p.ID) {
			if r.Alive[inst.ID] {
				first = model.MinTime(first, r.Finish[inst.ID])
			}
		}
		if first == model.Infinity {
			r.Violations = append(r.Violations,
				fmt.Sprintf("process %s: all replicas failed", p))
			continue
		}
		r.ProcDone[p.ID] = first
		if first > r.Makespan {
			r.Makespan = first
		}
		if p.Deadline > 0 && first > p.Deadline {
			r.Violations = append(r.Violations,
				fmt.Sprintf("process %s finished at %v, deadline %v", p, first, p.Deadline))
		}
	}
	return r
}

// readyTime returns the time at which the instance has, per incoming
// edge, at least one valid input available, or starved=true when some
// edge never delivers in this scenario.
func (r *Result) readyTime(s *sched.Schedule, it *sched.Item) (t model.Time, starved bool) {
	in := s.In
	inst := it.Inst
	t = inst.Proc.Release
	for _, e := range in.Graph.Predecessors(inst.Proc.ID) {
		valid := model.Infinity
		for _, src := range s.Ex.Of(e.Src) {
			if !r.Alive[src.ID] {
				continue
			}
			if src.Node == inst.Node {
				valid = model.MinTime(valid, r.Finish[src.ID])
				continue
			}
			sit := s.Item(src.ID)
			tr, ok := sit.Msg(e.Index)
			if !ok {
				continue
			}
			if r.Finish[src.ID] <= tr.Start {
				valid = model.MinTime(valid, tr.Arrival)
			}
		}
		if valid == model.Infinity {
			return 0, true
		}
		t = model.MaxTime(t, valid)
	}
	return t, false
}
