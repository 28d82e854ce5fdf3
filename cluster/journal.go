package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// The job journal is the coordinator's write-ahead log: one JSON record
// per line, appended and fsynced before the action it describes is
// acknowledged. Replaying the journal after a restart reconstructs the
// open jobs (submitted but not yet terminal) and the freshest
// checkpoint per fingerprint, so no acknowledged job is ever lost and a
// resumed solve starts from its last incumbent. Replay counts only
// newline-terminated lines: a final line without its newline is the
// tell-tale of dying mid-append, even when its bytes happen to parse,
// and is dropped; its fsync never returned, so its action was never
// acknowledged.

// Journal record types.
//
//ftdse:wire journal-records
const (
	recSubmit     = "submit"     // a job was admitted
	recDone       = "done"       // a job reached a terminal state
	recCheckpoint = "checkpoint" // a search checkpoint pulled from a node was kept
)

// journalRecord is one WAL line.
//
//ftdse:wire
type journalRecord struct {
	Type string `json:"type"`
	// ID is the coordinator-side job id (submit, done).
	ID string `json:"id,omitempty"`
	// Fingerprint keys checkpoints and lets replay coalesce.
	Fingerprint string `json:"fingerprint,omitempty"`
	// TraceID carries the job's request identity on done records, so one
	// solve is greppable end to end in the journal (submit records carry
	// it inside Request as trace_id).
	TraceID string `json:"trace_id,omitempty"`
	// Request is the full SubmitRequest document of a submit record —
	// everything needed to redispatch the job after a restart.
	Request json.RawMessage `json:"request,omitempty"`
	// State is the terminal state of a done record.
	State string `json:"state,omitempty"`
	// Result is the terminal result document of a done record, kept so
	// a restarted coordinator still answers GET /jobs/{id}.
	Result json.RawMessage `json:"result,omitempty"`
	// Checkpoint is the checkpoint document of a checkpoint record.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// journal is an append-only JSONL file, fsynced per record.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal replays path (which need not exist yet) and opens it for
// appending. The returned records are every complete line, in order;
// the file is truncated after the last of them.
func openJournal(path string) (*journal, []journalRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: opening journal: %w", err)
	}
	var recs []journalRecord
	rd := bufio.NewReader(f)
	valid := int64(0)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			break // no line, or a torn one without its newline
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: replaying journal: %w", err)
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			// A malformed line can only be the torn tail of a crashed
			// append: everything after it was never acknowledged either,
			// so replay stops here and the append position rewinds over
			// it.
			break
		}
		recs = append(recs, r)
		valid += int64(len(line))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: seeking journal: %w", err)
	}
	return &journal{f: f}, recs, nil
}

// append writes one record and fsyncs before returning: when append
// returns nil the record survives a crash of this process.
func (j *journal) append(r journalRecord) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("cluster: encoding journal record: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(data) + 1)
	buf.Write(data)
	buf.WriteByte('\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("cluster: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
