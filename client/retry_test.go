package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// stub answers every /solve with the scripted codes, then 200.
func stubServer(t *testing.T, codes ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= len(codes) {
			code := codes[n-1]
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(service.ErrorResponse{Error: "scripted", RetryAfterS: 1})
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{ID: "j1", State: service.StateDone})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func testProblem() ftdse.Problem {
	return ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 6, Nodes: 2, Seed: 1},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
}

func TestWithRetryWaitsOutQueueFull(t *testing.T) {
	srv, calls := stubServer(t, http.StatusTooManyRequests, http.StatusTooManyRequests)
	c := client.New(srv.URL, nil, client.WithRetry(3, 2*time.Second))
	start := time.Now()
	st, err := c.Submit(context.Background(), testProblem(), service.SolveOptions{})
	if err != nil {
		t.Fatalf("Submit with retry: %v", err)
	}
	if st.ID != "j1" {
		t.Fatalf("status = %+v", st)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
	// Two 429s, each honoring the 1s Retry-After (jittered upward).
	if e := time.Since(start); e < 2*time.Second {
		t.Fatalf("retries ignored Retry-After: done in %v", e)
	}
}

func TestWithRetryIsBounded(t *testing.T) {
	srv, calls := stubServer(t,
		http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusTooManyRequests)
	c := client.New(srv.URL, nil, client.WithRetry(2, 50*time.Millisecond))
	_, err := c.Submit(context.Background(), testProblem(), service.SolveOptions{})
	var qf *client.QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("exhausted retries = %v, want QueueFullError", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want exactly the 2 configured attempts", n)
	}
}

func TestWithRetryDoesNotTouchClientErrors(t *testing.T) {
	srv, calls := stubServer(t, http.StatusBadRequest)
	c := client.New(srv.URL, nil, client.WithRetry(5, time.Second))
	_, err := c.Submit(context.Background(), testProblem(), service.SolveOptions{})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a 400 was retried (%d calls)", n)
	}
}

func TestWithRetryHonorsContext(t *testing.T) {
	srv, _ := stubServer(t, http.StatusTooManyRequests, http.StatusTooManyRequests)
	c := client.New(srv.URL, nil, client.WithRetry(3, 10*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, testProblem(), service.SolveOptions{})
	if err == nil {
		t.Fatal("submit succeeded despite scripted 429s and a 100ms deadline")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("context deadline did not cut the retry sleep short (%v)", e)
	}
}

// flakyTransport fails the first fails round trips below HTTP, then
// passes requests on.
type flakyTransport struct {
	fails int
	calls atomic.Int64
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if int(f.calls.Add(1)) <= f.fails {
		return nil, errors.New("scripted connection reset")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestWithRetryBacksOffTransportErrors(t *testing.T) {
	srv, calls := stubServer(t)
	flaky := &flakyTransport{fails: 2}
	c := client.New(srv.URL, &http.Client{Transport: flaky}, client.WithRetry(3, time.Second))
	st, err := c.Submit(context.Background(), testProblem(), service.SolveOptions{})
	if err != nil {
		t.Fatalf("Submit through two transport failures: %v", err)
	}
	if st.ID != "j1" || calls.Load() != 1 || flaky.calls.Load() != 3 {
		t.Fatalf("status %+v after %d server calls and %d attempts, want j1 after 1 and 3",
			st, calls.Load(), flaky.calls.Load())
	}
}
