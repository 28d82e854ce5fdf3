package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// TraceHeader is the HTTP header that carries a job's trace ID across
// processes: client → coordinator → node, on dispatches and failover
// re-dispatches. The same ID appears in journal entries, SSE events,
// log lines and the final JobResult, so one grep over any of those
// reconstructs the job's life end to end.
const TraceHeader = "Ftdse-Trace-Id"

// NodeHeader carries, next to TraceHeader on a dispatch, the name of
// the member the coordinator sends the job to, for the Node field of
// the job's spans. A node ignores a value that is not a valid trace ID.
const NodeHeader = "Ftdse-Node"

// NewTraceID mints a 128-bit random trace ID in lower-case hex. IDs are
// correlation handles only — nothing derives meaning from their bytes —
// so crypto/rand is used purely for collision resistance across
// processes that share no state.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy source is broken;
		// a degraded constant ID keeps solves working and is visibly
		// wrong in any trace view.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is usable as a trace ID: non-empty,
// bounded, and free of characters that would break headers, JSON-line
// greps or log fields. Inbound IDs that fail this are replaced, not
// rejected — correlation is best-effort.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Span is one timed step of a job's life (its queue wait, its solve),
// offset-based so spans from one process need no clock agreement with
// any other: StartMs is measured from the owning process's first sight
// of the job, and durations come from the monotonic clock.
//
//ftdse:wire
type Span struct {
	// Name identifies the step: "queue_wait" or "solve".
	Name string `json:"name"`
	// StartMs is the span's start, in milliseconds since the owning
	// process accepted the job.
	StartMs float64 `json:"start_ms"`
	// DurationMs is the span's monotonic duration. Open spans (a solve
	// still running when a status is taken) report 0 and are stamped
	// when they close.
	DurationMs float64 `json:"duration_ms"`
	// Node is the cluster member the step ran on, when a coordinator
	// dispatched the job (NodeHeader).
	Node string `json:"node,omitempty"`
	// Attempt numbers the tries of a repeatable step (1 = first);
	// neither queue_wait nor solve repeats, so both leave it 0.
	Attempt int `json:"attempt,omitempty"`
}
