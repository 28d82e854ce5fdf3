package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/service"
)

// specials holds every string the encoders must leave to encoding/json:
// HTML characters, U+2028 and U+2029, and invalid UTF-8.
var specials = []string{"", "plain", "<a&b>", "line\u2028para\u2029end", "bad\xff\xfeutf8", "quote\"back\\slash\n"}

// rawDocs holds embedded documents the encoders must encode as
// json.Marshal does: nil and empty, compact and nested, with each kind
// of whitespace in and out of strings, with each byte compaction
// rewrites inside strings, an 0xE2 byte compaction keeps (U+2026), and
// invalid UTF-8.
func rawDocs(t testing.TB) []json.RawMessage {
	docs := []json.RawMessage{
		nil,
		{},
		json.RawMessage(`null`),
		json.RawMessage(`{}`),
		json.RawMessage(`[1,2.5,"x",true,null]`),
		json.RawMessage(`{"a":{"b":[{"c":{}},[]]},"d":"e"}`),
		json.RawMessage(" { \"a\" :\t[1 ,\r\n 2] }\n"),
		json.RawMessage(`{"s":"two  spaces"}`),
		json.RawMessage(`{"a": [1, 2]}`),
		json.RawMessage("{\"a\":\t1}"),
		json.RawMessage("{\"a\":\r1}"),
		json.RawMessage("{\"a\":\n1}"),
		json.RawMessage(`{"s":"<script>&amp;</script>"}`),
		json.RawMessage(`{"s":"<"}`),
		json.RawMessage(`{"s":">"}`),
		json.RawMessage(`{"s":"&"}`),
		json.RawMessage("{\"s\":\"\u2028\u2029\"}"),
		json.RawMessage("{\"s\":\"\u2028\"}"),
		json.RawMessage("{\"s\":\"\u2029\"}"),
		json.RawMessage("{\"s\":\"\u2026\"}"),
		json.RawMessage("{\"s\":\"\xff\xfe\"}"),
		json.RawMessage(`{"s":"\u003c\u2028"}`),
	}
	prob := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 16, Nodes: 3, Seed: 4}, ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
	doc, err := prob.AppendDocument(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(docs, doc, json.RawMessage(encodedResult(t)))
}

// encodedResult solves a small problem through a service and returns
// the stored result document.
func encodedResult(t testing.TB) []byte {
	svc := service.New(service.Config{PoolWorkers: 1})
	defer svc.Close(context.Background())
	doc, err := genProblem(8, 3).AppendDocument(nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.SubmitRequest{Problem: doc, Options: service.SolveOptions{MaxIterations: 5, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve?wait=1", bytes.NewReader(body)))
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || len(st.Result) == 0 {
		t.Fatalf("solve = %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
	}
	return st.Result
}

// requests builds SubmitRequests that set and unset every optional
// field, with every special string and the given documents.
func requests(docs []json.RawMessage) []service.SubmitRequest {
	on, off := true, false
	var out []service.SubmitRequest
	for i, doc := range docs {
		s := specials[i%len(specials)]
		out = append(out,
			service.SubmitRequest{Problem: doc},
			service.SubmitRequest{Problem: doc, TraceID: s, WarmStart: docs[(i+3)%len(docs)]},
			service.SubmitRequest{Problem: doc, TraceID: "t", Options: service.SolveOptions{
				Strategy: s, Engine: s, Seed: -3, MaxIterations: 7, TimeLimitMs: 0.25, Workers: 2,
				BusOptimization: true, Checkpointing: true, StopWhenSchedulable: true,
				SlackSharing: &off, FlightRecorder: true,
			}},
			service.SubmitRequest{Problem: doc, Options: service.SolveOptions{SlackSharing: &on}})
	}
	return out
}

// statuses builds JobStatuses that set and unset every optional field,
// with every special string and the given documents.
func statuses(docs []json.RawMessage) []service.JobStatus {
	at := time.Date(2025, 3, 4, 5, 6, 7, 890, time.FixedZone("x", 3600))
	later := at.Add(1500 * time.Millisecond)
	var out []service.JobStatus
	for i, doc := range docs {
		s := specials[i%len(specials)]
		out = append(out,
			service.JobStatus{Result: doc},
			service.JobStatus{ID: s, State: s, Fingerprint: s, SubmittedAt: at, Result: doc},
			service.JobStatus{
				ID: "j1", State: service.StateDone, Fingerprint: "sha256:ab", TraceID: s,
				Cached: true, Improvements: 4, SubmittedAt: at, StartedAt: &at,
				FinishedAt: &later, Error: s, Result: doc,
			})
	}
	return out
}

// sameAsMarshal fails unless got and err are what json.Marshal gives
// for v: the same bytes, or an error from both.
func sameAsMarshal(t *testing.T, what string, v any, got []byte, err error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Errorf("%s: error %v, json.Marshal's %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Errorf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// TestEncodersMatchMarshal checks both encoders, and AppendJSON's batch
// form, byte for byte against json.Marshal, appending after a prefix
// that must survive, also when the encoding fails.
func TestEncodersMatchMarshal(t *testing.T) {
	docs := rawDocs(t)
	prefix := []byte("prefix:")
	for i, req := range requests(docs) {
		got, err := service.AppendRequest(bytes.Clone(prefix), req, nil)
		checkPrefix(t, "request", prefix, got, err)
		sameAsMarshal(t, "AppendRequest", req, got[len(prefix):], err)

		// The document appended by the caller, as the client does: an
		// empty one is a non-nil empty json.RawMessage.
		doc := append(json.RawMessage{}, req.Problem...)
		viaDoc := req
		viaDoc.Problem = nil
		got, err = service.AppendRequest(bytes.Clone(prefix), viaDoc, func(dst []byte) ([]byte, error) {
			return append(dst, doc...), nil
		})
		checkPrefix(t, "request via doc", prefix, got, err)
		req.Problem = doc
		sameAsMarshal(t, "AppendRequest via doc", req, got[len(prefix):], err)

		if t.Failed() {
			t.Fatalf("request %d: %+v", i, req)
		}
	}
	sts := statuses(docs)
	for i, st := range sts {
		got, err := service.AppendStatus(bytes.Clone(prefix), st)
		checkPrefix(t, "status", prefix, got, err)
		sameAsMarshal(t, "AppendStatus", st, got[len(prefix):], err)
		if t.Failed() {
			t.Fatalf("status %d: %+v", i, st)
		}
	}
	for _, b := range []service.BatchResponse{{}, {Jobs: []service.JobStatus{}}, {Jobs: sts[3:9]}, {Jobs: sts[len(sts)-3:]}} {
		got, err := service.AppendJSON(nil, b)
		sameAsMarshal(t, "AppendJSON(BatchResponse)", b, got, err)
	}
}

// checkPrefix fails unless an append kept what dst held before it.
func checkPrefix(t *testing.T, what string, prefix, got []byte, err error) {
	t.Helper()
	if !bytes.HasPrefix(got, prefix) || (err != nil && len(got) != len(prefix)) {
		t.Fatalf("%s: append returned %q (error %v), want it after the prefix %q", what, got, err, prefix)
	}
}

// FuzzAppendEncoders compares both encoders with json.Marshal on
// arbitrary documents and strings. The encoders assume the embedded
// document is valid JSON (every caller holds bytes a JSON encoder made
// or a JSON decoder accepted), so only valid documents are compared.
func FuzzAppendEncoders(f *testing.F) {
	for i, doc := range rawDocs(f) {
		f.Add([]byte(doc), specials[i%len(specials)], uint8(i))
	}
	f.Fuzz(func(t *testing.T, raw []byte, s string, flags uint8) {
		if !json.Valid(raw) {
			return
		}
		set := func(bit int) bool { return flags&(1<<bit) != 0 }
		doc := json.RawMessage(raw)
		req := service.SubmitRequest{Problem: doc, TraceID: s}
		if set(0) {
			req.WarmStart = doc
		}
		if set(1) {
			req.Options = service.SolveOptions{Strategy: s, Engine: s, MaxIterations: int(flags), FlightRecorder: true}
		}
		got, err := service.AppendRequest(nil, req, nil)
		sameAsMarshal(t, "AppendRequest", req, got, err)
		viaDoc := req
		viaDoc.Problem = nil
		got, err = service.AppendRequest(nil, viaDoc, func(dst []byte) ([]byte, error) {
			return append(dst, doc...), nil
		})
		sameAsMarshal(t, "AppendRequest via doc", req, got, err)

		at := time.Unix(int64(flags)*1e6, int64(len(s)))
		st := service.JobStatus{ID: s, State: s, Fingerprint: s, Error: s, Result: doc, SubmittedAt: at}
		if set(2) {
			st.TraceID, st.Cached, st.StartedAt = s, true, &at
		}
		if set(3) {
			st.Result = nil
		}
		got, err = service.AppendStatus(nil, st)
		sameAsMarshal(t, "AppendStatus", st, got, err)
	})
}
