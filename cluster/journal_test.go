package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []journalRecord{
		{Type: recSubmit, ID: "c000001", Fingerprint: "fp1", Request: json.RawMessage(`{"problem":{}}`)},
		{Type: recCheckpoint, Fingerprint: "fp1", Checkpoint: json.RawMessage(`{"version":1}`)},
		{Type: recDone, ID: "c000001", Fingerprint: "fp1", State: "done", Result: json.RawMessage(`{"ok":true}`)},
	}
	for _, r := range want {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// A crash mid-append leaves a torn final line; replay must drop it and
// a subsequent append must not interleave with the garbage.
func TestJournalTornTailIsDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: recSubmit, ID: "c000001"}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate dying mid-write: a partial second record without newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"done","id":"c0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "c000001" {
		t.Fatalf("replay after torn tail = %+v, want just the first record", recs)
	}
	// The torn bytes were truncated away: a new append starts cleanly.
	if err := j2.append(journalRecord{Type: recDone, ID: "c000001", State: "done"}); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if len(recs) != 2 || recs[1].Type != recDone || recs[1].State != "done" {
		t.Fatalf("post-truncation journal = %+v, want clean submit+done", recs)
	}
}

// TestJournalReplayEveryCut records a session, cuts a copy of it at
// every byte offset, and replays each cut: replay must return exactly
// the records whose lines end, newline included, within the cut, and an
// append after that replay must survive the next one. A cut just
// before a newline leaves a final line that parses but whose append
// never returned, so it is dropped too.
func TestJournalReplayEveryCut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.wal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	session := []journalRecord{
		{Type: recSubmit, ID: "c000001", Fingerprint: "fp1", Request: json.RawMessage(`{"problem":{}}`)},
		{Type: recCheckpoint, Fingerprint: "fp1", Checkpoint: json.RawMessage(`{"version":1}`)},
		{Type: recDone, ID: "c000001", Fingerprint: "fp1", State: "done", Result: json.RawMessage(`{"ok":true}`)},
	}
	for _, r := range session {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appended := journalRecord{Type: recSubmit, ID: "c000002", Fingerprint: "fp2"}

	for cut := 0; cut <= len(data); cut++ {
		want := session[:bytes.Count(data[:cut], []byte("\n"))]
		cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, err := openJournal(cutPath)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !sameRecords(got, want) {
			t.Errorf("cut %d: replayed %d records, want %d", cut, len(got), len(want))
		}
		if err := j.append(appended); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, got, err = openJournal(cutPath)
		if err != nil {
			t.Fatalf("cut %d: second replay: %v", cut, err)
		}
		j.close()
		if want := append(want[:len(want):len(want)], appended); !sameRecords(got, want) {
			t.Errorf("cut %d: after an append, replayed %d records, want %d", cut, len(got), len(want))
		}
	}
}

// sameRecords compares replays, a nil and an empty one alike.
func sameRecords(a, b []journalRecord) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
