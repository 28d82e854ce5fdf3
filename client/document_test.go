package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation inflates allocation counts.
var raceEnabled bool

// TestConcurrentFirstSubmission submits one Problem that was never sent
// from many goroutines at once: the first submission encodes the
// Problem's document while the others wait for it. Under -race this
// pins that the shared document is filled once, safely, and every
// request carries the same bytes: the compact WriteProblem document.
func TestConcurrentFirstSubmission(t *testing.T) {
	svc := service.New(service.Config{PoolWorkers: 1, QueueSize: 8})
	h := svc.Handler()
	var mu sync.Mutex
	var sent [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading request: %v", err)
		}
		var req service.SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		mu.Lock()
		sent = append(sent, req.Problem)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := svc.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	c := client.New(srv.URL, srv.Client())

	prob := genProblem(12, 5)
	opts := service.SolveOptions{MaxIterations: 5, Workers: 1}
	const callers = 16
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = c.Submit(context.Background(), prob, opts)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, prob); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, doc.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(sent) != callers {
		t.Fatalf("server saw %d submissions, want %d", len(sent), callers)
	}
	for i, got := range sent {
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("request %d carried a different document:\n%s\nwant\n%s", i, got, want.Bytes())
		}
	}
}

// TestRepeatRequestAllocs gates what a resubmission of one Problem
// through SubmitBatch costs the caller before the request leaves:
// NewRequest and the request's json.Marshal. The Problem encoded its
// document on the first submission, so a repeat copies it instead of
// encoding it again (276 allocations when every submission encoded).
func TestRepeatRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 20, Nodes: 3, Seed: 9},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
	opts := service.SolveOptions{MaxIterations: 5, Workers: 1}
	encode := func() {
		req, err := client.NewRequest(prob, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	encode() // the first submission encodes the document
	allocs := testing.AllocsPerRun(50, encode)
	t.Logf("a repeat request allocates %.0f objects", allocs)
	if allocs > 8 {
		t.Fatalf("a repeat request allocates %.0f objects, want at most 8", allocs)
	}
}

// TestRepeatSubmitBodyAllocs gates the body a resubmission of one
// Problem builds before Submit or SubmitWait sends it: the trace ID and
// the request's other fields are encoded, and the Problem's document is
// copied once, straight into the body (8 allocations now).
func TestRepeatSubmitBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 20, Nodes: 3, Seed: 9},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
	opts := service.SolveOptions{MaxIterations: 5, Workers: 1}
	body := func() {
		if _, err := client.SubmitBody(prob, opts); err != nil {
			t.Fatal(err)
		}
	}
	body() // the first submission encodes the document
	allocs := testing.AllocsPerRun(50, body)
	t.Logf("a repeat submission body allocates %.0f objects", allocs)
	if allocs > 10 {
		t.Fatalf("a repeat submission body allocates %.0f objects, want at most 10", allocs)
	}
}
