package cluster

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/ftdse"
)

// journaledCoordinator opens a coordinator over an unreachable node with
// a journal at path. It is never started: keeping a checkpoint needs no
// loops.
func journaledCoordinator(t *testing.T, path string) *Coordinator {
	t.Helper()
	c, err := New(Config{
		Nodes:   []Node{{Name: "n1", URL: "http://127.0.0.1:1"}},
		Journal: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// keep hands c a one-process checkpoint of the given makespan for fp,
// as a pull from a node does.
func keep(t *testing.T, c *Coordinator, fp string, makespanMs float64) {
	var doc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&doc, ftdse.Checkpoint{
		Version:     ftdse.CheckpointVersion,
		Fingerprint: fp,
		Schedulable: true,
		MakespanMs:  makespanMs,
		Design:      map[string][]ftdse.CheckpointReplica{"P1": {{Node: "N1"}}},
	}); err != nil {
		t.Error(err)
		return
	}
	if _, err := c.keepCheckpoint(fp, doc.Bytes()); err != nil {
		t.Errorf("checkpoint of %vms: %v", makespanMs, err)
	}
}

// storedMakespan is the makespan of the checkpoint c keeps for fp.
func storedMakespan(t *testing.T, c *Coordinator, fp string) float64 {
	t.Helper()
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(c.LatestCheckpoint(fp)))
	if err != nil {
		t.Fatalf("stored checkpoint for %s: %v", fp, err)
	}
	return ck.MakespanMs
}

// TestCheckpointPushKeepsBetter: a checkpoint worse than the stored one
// is dropped, so the better one stays stored, in memory and after the
// journal is replayed.
func TestCheckpointPushKeepsBetter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	c := journaledCoordinator(t, path)
	keep(t, c, "fp", 100)
	keep(t, c, "fp", 200)
	if got := storedMakespan(t, c, "fp"); got != 100 {
		t.Errorf("stored makespan %vms after a worse checkpoint, want 100ms", got)
	}
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	reopened := journaledCoordinator(t, path)
	defer reopened.Close(context.Background())
	if got := storedMakespan(t, reopened, "fp"); got != 100 {
		t.Errorf("replayed makespan %vms, want 100ms", got)
	}
}

// TestConcurrentCheckpointPushesKeepBest: checkpoints racing for one
// fingerprint through a journaled coordinator leave the best of them
// stored, in memory and after replay. Each one journals with an fsync,
// so without serialization several pass the comparison against the
// same stored checkpoint and a worse one can land last.
func TestConcurrentCheckpointPushesKeepBest(t *testing.T) {
	const trials, pushes = 5, 16
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("jobs%d.wal", trial))
		c := journaledCoordinator(t, path)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < pushes; i++ {
			wg.Add(1)
			go func(makespan float64) {
				defer wg.Done()
				<-start
				keep(t, c, "fp", makespan)
			}(float64(100 + i))
		}
		close(start)
		wg.Wait()
		if got := storedMakespan(t, c, "fp"); got != 100 {
			t.Errorf("trial %d: stored makespan %vms, want the best checkpoint, 100ms", trial, got)
		}
		if err := c.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		reopened := journaledCoordinator(t, path)
		if got := storedMakespan(t, reopened, "fp"); got != 100 {
			t.Errorf("trial %d: replayed makespan %vms, want 100ms", trial, got)
		}
		reopened.Close(context.Background())
	}
}
