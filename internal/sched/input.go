// Package sched implements the fault-tolerant list scheduler of the
// paper's Section 5.1. Given a merged application graph Γ, an
// architecture, a fault model (k, µ), a fault-tolerance policy
// assignment (which folds in the mapping) and a bus-access
// configuration, it builds the static schedule tables for the nodes and
// the MEDL for the TTP bus, together with a worst-case response-time
// analysis covering every distribution of the k transient faults.
//
// The scheduler realizes the paper's transparent re-execution
// ([11]-style recovery with slack sharing): outbound messages are placed
// in the MEDL at the sender's worst-case surviving completion time, so
// faults on one node are never observed by other nodes, and re-execution
// slack on a node is shared among the processes mapped to it.
// Descendants of replicated processes are scheduled at their nominal
// (fault-free) position, with the contingency behaviour (Figure 7 of the
// paper) covered by the worst-case analysis.
package sched

import (
	"fmt"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/ttp"
)

// Options tune scheduler behaviour; the zero value is NOT the default,
// use DefaultOptions.
type Options struct {
	// SlackSharing enables the shared re-execution slack of [11]
	// (Figure 3b2 of the paper). When disabled, every process reserves
	// its own private worst-case re-execution slack, which is the naive
	// pre-Kandasamy baseline used by the ablation benchmarks.
	SlackSharing bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{SlackSharing: true} }

// Input bundles everything the scheduler needs.
type Input struct {
	Graph      *model.Graph // merged application graph Γ
	Arch       *arch.Architecture
	WCET       *arch.WCET
	Faults     fault.Model
	Assignment policy.Assignment
	Bus        ttp.Config
	Options    Options

	// Static, when non-nil, supplies assignment-independent data
	// precomputed with NewStatic. Optimizers that schedule thousands of
	// assignment variants over the same graph and bus use it to avoid
	// recomputing priorities per call. It also implies that graph, WCET
	// and bus were validated once up front, so Build skips revalidation
	// (assignment-dependent errors are still caught during placement).
	//
	// A non-nil Static additionally licenses concurrent Build calls
	// over the same input: NewStatic builds the graph's adjacency once,
	// Static itself is never written after construction, and every
	// build keeps its mutable state (builder, timelines, bus allocator,
	// schedule) in its own scratch. Callers must treat Graph, Arch,
	// WCET, Bus and Static as strictly read-only for the duration of
	// any concurrent builds; each concurrent call needs its own
	// Assignment (the built Schedule retains it).
	Static *Static
}

// Static is the assignment-independent part of a scheduling context.
type Static struct {
	adj  *model.Adjacency // the graph's own adjacency, shared read-only
	prio []model.Time     // bottom levels, indexed by ProcID
}

// NewStatic validates the assignment-independent inputs and precomputes
// the priorities for repeated Build calls.
func NewStatic(in Input) (*Static, error) {
	probe := in
	probe.Static = nil
	probe.Assignment = nil
	if err := probe.validateStatic(); err != nil {
		return nil, err
	}
	return &Static{adj: in.Graph.Adjacency(), prio: BottomLevels(in)}, nil
}

// validateStatic checks the assignment-independent invariants.
func (in Input) validateStatic() error {
	if in.Graph == nil {
		return fmt.Errorf("sched: nil graph")
	}
	if in.Arch == nil || in.WCET == nil {
		return fmt.Errorf("sched: nil architecture or WCET table")
	}
	if err := in.Arch.Validate(); err != nil {
		return err
	}
	if err := in.Faults.Validate(); err != nil {
		return err
	}
	if _, err := in.Graph.TopologicalOrder(); err != nil {
		return err
	}
	if err := in.WCET.Validate(in.Graph, in.Arch); err != nil {
		return err
	}
	return in.Bus.Validate(in.Arch)
}

// Validate checks the consistency of the whole input.
func (in Input) Validate() error {
	if err := in.validateStatic(); err != nil {
		return err
	}
	return in.Assignment.Validate(in.Graph, in.WCET, in.Faults.K)
}
