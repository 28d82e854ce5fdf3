package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/ftdse"
	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// journaledCoordinator opens a coordinator over an unreachable node with
// a journal at path. It is never started: checkpoint pushes need no
// loops.
func journaledCoordinator(t *testing.T, path string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes:   []cluster.Node{{Name: "n1", URL: "http://127.0.0.1:1"}},
		Journal: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pushCheckpoint posts a one-process checkpoint of the given makespan
// for fp through the coordinator's HTTP surface.
func pushCheckpoint(t *testing.T, h http.Handler, fp string, makespanMs float64) {
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
	body, err := json.Marshal(service.CheckpointPush{Node: "n1", Fingerprint: fp, Checkpoint: doc.Bytes()})
	if err != nil {
		t.Error(err)
		return
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/checkpoints", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("push of %vms: status %d: %s", makespanMs, rec.Code, rec.Body)
	}
}

// storedMakespan is the makespan of the checkpoint c keeps for fp.
func storedMakespan(t *testing.T, c *cluster.Coordinator, fp string) float64 {
	t.Helper()
	ck, err := ftdse.ReadCheckpoint(bytes.NewReader(c.LatestCheckpoint(fp)))
	if err != nil {
		t.Fatalf("stored checkpoint for %s: %v", fp, err)
	}
	return ck.MakespanMs
}

// TestCheckpointPushKeepsBetter: a push worse than the stored
// checkpoint is dropped, so the better one stays stored, in memory and
// after the journal is replayed.
func TestCheckpointPushKeepsBetter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	c := journaledCoordinator(t, path)
	pushCheckpoint(t, c.Handler(), "fp", 100)
	pushCheckpoint(t, c.Handler(), "fp", 200)
	if got := storedMakespan(t, c, "fp"); got != 100 {
		t.Errorf("stored makespan %vms after a worse push, want 100ms", got)
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

// TestConcurrentCheckpointPushesKeepBest: pushes racing for one
// fingerprint through a journaled coordinator leave the best of them
// stored, in memory and after replay. Each push journals with an
// fsync, so without serialization several pushes pass the comparison
// against the same stored checkpoint and a worse one can land last.
func TestConcurrentCheckpointPushesKeepBest(t *testing.T) {
	const trials, pushes = 5, 16
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("jobs%d.wal", trial))
		c := journaledCoordinator(t, path)
		h := c.Handler()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < pushes; i++ {
			wg.Add(1)
			go func(makespan float64) {
				defer wg.Done()
				<-start
				pushCheckpoint(t, h, "fp", makespan)
			}(float64(100 + i))
		}
		close(start)
		wg.Wait()
		if got := storedMakespan(t, c, "fp"); got != 100 {
			t.Errorf("trial %d: stored makespan %vms, want the best push, 100ms", trial, got)
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
