package sysio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/ftdse/internal/core"
)

// The trace export is the flight recorder's durable form: JSON Lines —
// one header object followed by one event object per line — because a
// trace is an append-shaped sequence, tools stream it line by line
// (cmd/fttrace, grep), and the cluster ships it inside job results.
// Like the problem, schedule and checkpoint exports the format is
// canonical and ReadTrace is strict: unknown fields, unknown event
// kinds, out-of-order sequence numbers and non-monotone elapsed stamps
// are all rejected, so any accepted document re-serializes through
// WriteTrace to identical bytes (pinned by FuzzReadTrace).

// TraceVersion is the current trace document version.
const TraceVersion = 1

// traceHeader is the first line of a trace document. Dropped is always
// serialized (not omitempty) so the header is self-describing and the
// canonical form of every trace has the same shape.
//
//ftdse:wire
type traceHeader struct {
	Version int `json:"version"`
	Dropped int `json:"dropped"`
}

// WriteTrace serializes a trace in the canonical JSONL form: the
// header line, then every event on its own line in recorded order.
func WriteTrace(w io.Writer, t *core.Trace) error {
	if t == nil {
		return errors.New("sysio: nil trace")
	}
	if err := validateTrace(t); err != nil {
		return fmt.Errorf("sysio: invalid trace: %w", err)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Version: TraceVersion, Dropped: t.Dropped}); err != nil {
		return err
	}
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace document written by WriteTrace. The parse
// is strict — unknown fields, trailing content on a line, an
// unsupported version, unknown event kinds and broken monotonicity are
// rejected — so any accepted document reaches a byte-identical fixed
// point after one normalizing write.
func ReadTrace(r io.Reader) (*core.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sysio: reading trace: %w", err)
		}
		return nil, errors.New("sysio: empty trace document (no header line)")
	}
	var hdr traceHeader
	if err := decodeStrict(bytes.NewReader(sc.Bytes()), &hdr); err != nil {
		return nil, fmt.Errorf("sysio: parsing trace header: %w", err)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("sysio: unsupported trace version %d (want %d)", hdr.Version, TraceVersion)
	}
	t := &core.Trace{Dropped: hdr.Dropped}
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			return nil, fmt.Errorf("sysio: trace line %d: blank line inside document", line)
		}
		var ev core.SearchEvent
		if err := decodeStrict(bytes.NewReader(raw), &ev); err != nil {
			return nil, fmt.Errorf("sysio: trace line %d: %w", line, err)
		}
		t.Events = append(t.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sysio: reading trace: %w", err)
	}
	if err := validateTrace(t); err != nil {
		return nil, fmt.Errorf("sysio: invalid trace: %w", err)
	}
	return t, nil
}

// validateTrace checks the structural invariants the recorder
// guarantees: known kinds, sequence numbers strictly increasing,
// elapsed stamps non-negative and non-decreasing, sane sweep and cost
// fields.
func validateTrace(t *core.Trace) error {
	if t.Dropped < 0 {
		return fmt.Errorf("negative dropped count %d", t.Dropped)
	}
	prevSeq, prevElapsed := 0, 0.0
	for i := range t.Events {
		ev := &t.Events[i]
		if !core.ValidEventKind(ev.Kind) {
			return fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Seq <= prevSeq {
			return fmt.Errorf("event %d: sequence %d not increasing (previous %d)", i, ev.Seq, prevSeq)
		}
		if ev.ElapsedMs < prevElapsed {
			return fmt.Errorf("event %d: elapsed %vms before previous %vms", i, ev.ElapsedMs, prevElapsed)
		}
		if ev.Iteration < 0 {
			return fmt.Errorf("event %d: negative iteration %d", i, ev.Iteration)
		}
		if ev.MakespanUs < 0 || ev.TardinessUs < 0 {
			return fmt.Errorf("event %d: negative cost (makespan %d, tardiness %d)", i, ev.MakespanUs, ev.TardinessUs)
		}
		if ev.Moves < 0 || ev.Evaluated < 0 || ev.CacheHits < 0 {
			return fmt.Errorf("event %d: negative sweep stats", i)
		}
		if ev.Evaluated+ev.CacheHits > ev.Moves {
			return fmt.Errorf("event %d: sweep stats exceed neighborhood (%d evaluated + %d hits > %d moves)",
				i, ev.Evaluated, ev.CacheHits, ev.Moves)
		}
		prevSeq, prevElapsed = ev.Seq, ev.ElapsedMs
	}
	return nil
}
