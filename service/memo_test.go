package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/ftdse"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation makes sync.Pool drop items and inflates allocation
// counts.
var raceEnabled bool

// problemDoc renders a generated problem as its WriteProblem document.
func problemDoc(t *testing.T, procs int, seed int64) []byte {
	t.Helper()
	var doc bytes.Buffer
	p := ftdse.GenerateProblem(ftdse.GenSpec{Procs: procs, Nodes: 2, Seed: seed},
		ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// newTestService starts a service that the test drains at its end.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

// serve posts one request body straight into the handler.
func serve(t *testing.T, h http.Handler, path string, body []byte) (int, JobStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	var st JobStatus
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
	}
	return rec.Code, st
}

// rawBody embeds a problem document verbatim: json.Marshal would compact
// it, and these tests need the exact bytes to reach the service.
func rawBody(doc []byte, opts SolveOptions) []byte {
	o, _ := json.Marshal(opts) // SolveOptions always marshals
	return []byte(`{"problem":` + string(doc) + `,"options":` + string(o) + `}`)
}

// TestProblemMemoExactAndBounded pins what the memo may and may not
// store, that equivalent documents still meet in the result cache, and
// that concurrent first sight of one document is safe.
func TestProblemMemoExactAndBounded(t *testing.T) {
	doc := problemDoc(t, 6, 5)
	opts := SolveOptions{MaxIterations: 5, Workers: 1}

	t.Run("rejected documents are never stored", func(t *testing.T) {
		s := newTestService(t, Config{})
		var m map[string]any
		if err := json.Unmarshal(doc, &m); err != nil {
			t.Fatal(err)
		}
		m["architecture"] = []string{}
		invalid, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{[]byte(`{"nonsense":true}`), invalid} {
			_, first := s.memo.Prepare(SubmitRequest{Problem: bad, Options: opts}, 0)
			if first == nil {
				t.Fatalf("accepted %s", bad)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.memo.Prepare(SubmitRequest{Problem: bad, Options: opts}, 0); err == nil || err.Error() != first.Error() {
					t.Fatalf("repeat %d: error %v, want %v", i, err, first)
				}
			}
		}
		if n := s.memo.docs.len(); n != 0 {
			t.Fatalf("memo holds %d entries after rejected documents only", n)
		}
	})

	t.Run("indented and compact copies hit the result cache", func(t *testing.T) {
		s := newTestService(t, Config{})
		h := s.Handler()
		code, solved := serve(t, h, "/solve?wait=1", rawBody(doc, opts))
		if code != http.StatusOK || solved.State != StateDone || solved.Cached {
			t.Fatalf("first solve = %d %+v", code, solved)
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&indented, doc, "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, copy := range [][]byte{compact.Bytes(), indented.Bytes()} {
			code, st := serve(t, h, "/solve", rawBody(copy, opts))
			if code != http.StatusOK || !st.Cached || st.Fingerprint != solved.Fingerprint ||
				!bytes.Equal(st.Result, solved.Result) {
				t.Fatalf("equivalent copy = %d cached=%t fp=%s, want a cache hit on %s",
					code, st.Cached, st.Fingerprint, solved.Fingerprint)
			}
		}
		if n := s.memo.docs.len(); n != 3 {
			t.Fatalf("memo holds %d entries, want one per distinct document (3)", n)
		}
	})

	t.Run("entries never exceed CacheSize", func(t *testing.T) {
		for _, size := range []int{2, -1} {
			s := newTestService(t, Config{CacheSize: size})
			for seed := int64(1); seed <= 4; seed++ {
				if _, err := s.memo.Prepare(SubmitRequest{Problem: problemDoc(t, 4, seed), Options: opts}, 0); err != nil {
					t.Fatal(err)
				}
				if n := s.memo.docs.len(); n > max(size, 0) {
					t.Fatalf("CacheSize %d: memo holds %d entries", size, n)
				}
			}
		}
	})

	t.Run("concurrent first sight", func(t *testing.T) {
		s := newTestService(t, Config{})
		const callers = 8
		fps := make([]string, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, err := s.memo.Prepare(SubmitRequest{Problem: doc, Options: opts}, 0)
				fps[i], errs[i] = p.Fingerprint, err
			}(i)
		}
		wg.Wait()
		for i := range fps {
			if errs[i] != nil || fps[i] != fps[0] {
				t.Fatalf("caller %d: fp %q err %v, want %q", i, fps[i], errs[i], fps[0])
			}
		}
		if n := s.memo.docs.len(); n != 1 {
			t.Fatalf("memo holds %d entries for one document", n)
		}
	})
}

// TestRepeatHitAllocs gates the allocations of a repeated submission
// answered from the result cache: with the memo it neither decodes nor
// re-encodes the problem document.
func TestRepeatHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	s := newTestService(t, Config{})
	h := s.Handler()
	body := rawBody(problemDoc(t, 20, 9), SolveOptions{MaxIterations: 5, Workers: 1})
	if code, st := serve(t, h, "/solve?wait=1", body); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("first solve = %d %+v", code, st)
	}
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat = %d, want a cache hit", rec.Code)
		}
	})
	t.Logf("a repeat hit allocates %.0f objects", allocs)
	if allocs > 100 {
		t.Fatalf("a repeat hit allocates %.0f objects, want at most 100", allocs)
	}
}

// TestFinishedJobDropsLastIncumbent pins that a terminal job retains
// neither its problem nor its last incumbent design.
func TestFinishedJobDropsLastIncumbent(t *testing.T) {
	s := newTestService(t, Config{})
	code, st := serve(t, s.Handler(), "/solve?wait=1",
		rawBody(problemDoc(t, 10, 3), SolveOptions{MaxIterations: 20, Workers: 1}))
	if code != http.StatusOK || st.State != StateDone || st.Improvements == 0 {
		t.Fatalf("solve = %d %+v, want done with improvements", code, st)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastImp.Design != nil || j.problem.NumProcesses() != 0 {
		t.Fatal("terminal job still holds its last incumbent or its problem")
	}
}
