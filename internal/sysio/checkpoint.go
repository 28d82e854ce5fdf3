package sysio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
)

// The checkpoint export is the durability artifact of a running search:
// the incumbent design together with where the search stood when it was
// taken (phase, iteration, cost, elapsed time). A coordinator pulls one
// from a node while the search improves; after the node dies, the
// checkpoint warm-starts the resumed solve on another node, so the
// search continues from the incumbent instead of restarting. Like the
// problem and schedule exports the format is canonical — fixed key
// order, sorted design entries (Go serializes map keys sorted),
// two-space indent, trailing newline — and ReadCheckpoint is strict, so
// any accepted document reaches a byte-identical fixed point after one
// normalizing write (pinned by FuzzReadCheckpoint).

// CheckpointVersion is the current checkpoint document version.
const CheckpointVersion = 1

// CheckpointDoc is the parsed form of a search checkpoint. Design maps
// process names to their replica policies; names (not IDs) make the
// document portable across re-parses of the same problem document and
// across *similar* problems that keep the structure but perturb WCETs —
// the warm-start use case.
//
//ftdse:wire
type CheckpointDoc struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Phase and Iteration locate the search when the checkpoint was
	// taken (the Improvement that produced the incumbent).
	Phase     string `json:"phase,omitempty"`
	Iteration int    `json:"iteration"`

	Schedulable bool    `json:"schedulable"`
	MakespanMs  float64 `json:"makespan_ms"`
	TardinessMs float64 `json:"tardiness_ms,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms,omitempty"`

	Design map[string][]CheckpointReplica `json:"design"`
}

// CheckpointReplica is one replica of one process in a checkpointed
// design: the node it is mapped to and its time redundancy.
type CheckpointReplica struct {
	Node        string `json:"node"`
	Reexec      int    `json:"reexec,omitempty"`
	Checkpoints int    `json:"checkpoints,omitempty"`
}

// WriteCheckpoint serializes a checkpoint document in the canonical
// form.
func WriteCheckpoint(w io.Writer, d CheckpointDoc) error {
	if err := d.validate(); err != nil {
		return fmt.Errorf("sysio: invalid checkpoint: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadCheckpoint parses a checkpoint document. The parse is strict —
// unknown fields, trailing content, an unsupported version and
// structurally invalid designs are rejected — so any document it
// accepts re-serializes with WriteCheckpoint to the canonical form and
// is stable under further round trips.
func ReadCheckpoint(r io.Reader) (CheckpointDoc, error) {
	var d CheckpointDoc
	if err := decodeStrict(r, &d); err != nil {
		return CheckpointDoc{}, fmt.Errorf("sysio: parsing checkpoint: %w", err)
	}
	if err := d.validate(); err != nil {
		return CheckpointDoc{}, fmt.Errorf("sysio: invalid checkpoint: %w", err)
	}
	return d, nil
}

// validate checks the structural invariants of a checkpoint document.
func (d *CheckpointDoc) validate() error {
	if d.Version != CheckpointVersion {
		return fmt.Errorf("unsupported version %d (want %d)", d.Version, CheckpointVersion)
	}
	if d.Iteration < 0 {
		return fmt.Errorf("negative iteration %d", d.Iteration)
	}
	if d.MakespanMs < 0 || d.TardinessMs < 0 || d.ElapsedMs < 0 {
		return fmt.Errorf("negative timing (makespan %v, tardiness %v, elapsed %v)",
			d.MakespanMs, d.TardinessMs, d.ElapsedMs)
	}
	if d.Schedulable && d.TardinessMs > 0 {
		return fmt.Errorf("schedulable checkpoint with tardiness %v", d.TardinessMs)
	}
	if len(d.Design) == 0 {
		return errors.New("empty design")
	}
	for _, name := range sortedKeys(d.Design) {
		reps := d.Design[name]
		if name == "" {
			return errors.New("design entry with empty process name")
		}
		if len(reps) == 0 {
			return fmt.Errorf("process %q has no replicas", name)
		}
		for ri, rep := range reps {
			switch {
			case rep.Node == "":
				return fmt.Errorf("process %q replica %d has no node", name, ri)
			case rep.Reexec < 0 || rep.Checkpoints < 0:
				return fmt.Errorf("process %q replica %d: negative redundancy", name, ri)
			}
		}
	}
	return nil
}

// NewCheckpoint builds a checkpoint document for an incumbent design of
// a problem, filling the version and the design from the assignment;
// the caller provides the search metadata (fingerprint, phase,
// iteration, cost) in shell.
func NewCheckpoint(p core.Problem, shell CheckpointDoc, asgn policy.Assignment) (CheckpointDoc, error) {
	names, err := uniqueNames(p.App)
	if err != nil {
		return CheckpointDoc{}, err
	}
	shell.Version = CheckpointVersion
	shell.Design = make(map[string][]CheckpointReplica, len(asgn))
	ids := make([]model.ProcID, 0, len(asgn))
	for id := range asgn {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pol := asgn[id]
		name, ok := names[id]
		if !ok {
			return CheckpointDoc{}, fmt.Errorf("sysio: design references unknown process %d", id)
		}
		reps := make([]CheckpointReplica, 0, len(pol.Replicas))
		for _, rep := range pol.Replicas {
			n := p.Arch.Node(rep.Node)
			if n == nil {
				return CheckpointDoc{}, fmt.Errorf("sysio: design maps %q to unknown node %d", name, rep.Node)
			}
			reps = append(reps, CheckpointReplica{
				Node:        n.Name,
				Reexec:      rep.Reexec,
				Checkpoints: rep.Checkpoints,
			})
		}
		shell.Design[name] = reps
	}
	if err := shell.validate(); err != nil {
		return CheckpointDoc{}, fmt.Errorf("sysio: invalid checkpoint: %w", err)
	}
	return shell, nil
}

// CheckpointAssignment resolves a checkpoint's design against a problem,
// returning the policy assignment that warm-starts a solve. Every
// checkpointed process and node must exist in the problem; processes
// of the problem absent from the checkpoint are an error too — a
// partial design cannot seed a search.
func CheckpointAssignment(p core.Problem, d CheckpointDoc) (policy.Assignment, error) {
	names, err := uniqueNames(p.App)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]model.ProcID, len(names))
	for id, name := range names {
		byName[name] = id
	}
	nodeByName := make(map[string]arch.NodeID, p.Arch.NumNodes())
	for _, n := range p.Arch.Nodes() {
		nodeByName[n.Name] = n.ID
	}
	asgn := policy.Assignment{}
	for _, name := range sortedKeys(d.Design) {
		reps := d.Design[name]
		id, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("sysio: checkpoint references unknown process %q", name)
		}
		var pol policy.Policy
		for _, rep := range reps {
			nid, ok := nodeByName[rep.Node]
			if !ok {
				return nil, fmt.Errorf("sysio: checkpoint maps %q to unknown node %q", name, rep.Node)
			}
			pol.Replicas = append(pol.Replicas, policy.Replica{
				Node:        nid,
				Reexec:      rep.Reexec,
				Checkpoints: rep.Checkpoints,
			})
		}
		asgn[id] = pol
	}
	missing := make(map[model.ProcID]bool)
	for id := range names {
		if _, ok := asgn[id]; !ok {
			missing[id] = true
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("sysio: checkpoint misses process %q", sortedNames(missing, names)[0])
	}
	return asgn, nil
}
