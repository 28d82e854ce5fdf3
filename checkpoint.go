package ftdse

import (
	"io"

	"repro/ftdse/internal/sysio"
)

// Checkpoint is the parsed form of a search checkpoint: the incumbent
// design plus where the search stood when the snapshot was taken
// (phase, iteration, cost, elapsed time). The cluster coordinator pulls
// one from a node at most once per checkpoint interval so a killed
// node's solve resumes elsewhere via WithWarmStart; the document is also a durable, human-readable
// record of an incumbent. Like the problem and schedule exports the
// encoding is canonical, so an accepted document round-trips through
// WriteCheckpoint bit-identically.
type Checkpoint = sysio.CheckpointDoc

// CheckpointReplica is one replica of one process in a checkpointed
// design.
type CheckpointReplica = sysio.CheckpointReplica

// CheckpointVersion is the current checkpoint document version.
const CheckpointVersion = sysio.CheckpointVersion

// ReadCheckpoint parses a checkpoint document written by
// WriteCheckpoint. The parse is strict — unknown fields, trailing
// content and structurally invalid documents are rejected — so an
// accepted document re-serializes to identical bytes.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	return sysio.ReadCheckpoint(r)
}

// WriteCheckpoint serializes a checkpoint in the canonical form.
func WriteCheckpoint(w io.Writer, c Checkpoint) error {
	return sysio.WriteCheckpoint(w, c)
}

// NewCheckpoint snapshots an incumbent improvement (as delivered to a
// WithProgress observer) of a solve over p as a checkpoint document.
// The improvement must carry its design. The fingerprint — typically
// service.Fingerprint of the job — identifies which solve the
// checkpoint belongs to; it may be empty.
func NewCheckpoint(p Problem, fingerprint string, imp Improvement) (Checkpoint, error) {
	shell := Checkpoint{
		Fingerprint: fingerprint,
		Phase:       imp.Phase,
		Iteration:   imp.Iteration,
		Schedulable: imp.Schedulable,
		MakespanMs:  float64(imp.Cost.Makespan) / float64(Millisecond),
		TardinessMs: float64(imp.Cost.Tardiness) / float64(Millisecond),
		ElapsedMs:   float64(imp.Elapsed.Milliseconds()),
	}
	return sysio.NewCheckpoint(p.core, shell, imp.Design)
}

// CheckpointDesign resolves a checkpoint's design against a problem,
// returning the Design that warm-starts a solve (WithWarmStart).
// Processes and nodes are matched by name, so the checkpoint may come
// from a *similar* problem — same structure, perturbed WCETs — not
// only from a byte-identical one. Unknown or missing processes and
// unknown nodes are errors.
func CheckpointDesign(p Problem, c Checkpoint) (Design, error) {
	return sysio.CheckpointAssignment(p.core, c)
}
