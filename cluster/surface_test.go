package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/ftdse/cluster"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// answer is what the parity tests compare of one response.
type answer struct {
	code        int
	contentType string
	body        []byte
	traceID     string
}

// ask sends one request and reads its answer.
func ask(t *testing.T, method, url string, body []byte, header http.Header) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the answer: %v", method, url, err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), got, resp.Header.Get(obs.TraceHeader)}
}

// TestJobSurfaceParity sends a node and a coordinator over it the same
// requests: both must answer each with the same status code and
// Content-Type, and every refusal with the same error body.
func TestJobSurfaceParity(t *testing.T) {
	nodes := startNodes(t, 1, service.Config{})
	_, coord := startCoordinator(t, fastCfg(nodes))
	valid := decodeRequest(t, submitBody(t, genProblem(6, 41), service.SolveOptions{MaxIterations: 3, Workers: 1}))
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	badTrace := valid
	badTrace.TraceID = "not a trace id"
	invalid := decodeRequest(t, []byte(`{"problem":{"nonsense":true}}`))
	traceID := obs.NewTraceID()

	for _, tc := range []struct {
		name, method, path string
		body               []byte
		header             http.Header
		code               int
		prefix             string // of the error body, when set
	}{
		{"malformed JSON", http.MethodPost, "/solve", []byte(`{"problem":`), nil, http.StatusBadRequest, ""},
		{"bad strategy, no problem", http.MethodPost, "/solve", []byte(`{"options":{"strategy":"bogus"}}`), nil, http.StatusBadRequest, ""},
		{"invalid trace ID", http.MethodPost, "/solve", marshal(badTrace), nil, http.StatusBadRequest, ""},
		{"empty batch", http.MethodPost, "/solve/batch", []byte(`{"jobs":[]}`), nil, http.StatusBadRequest, ""},
		{"batch job 1 invalid", http.MethodPost, "/solve/batch",
			marshal(service.BatchRequest{Jobs: []service.SubmitRequest{valid, invalid}}), nil, http.StatusBadRequest,
			`{"error":"batch job 1: `},
		{"GET unknown job", http.MethodGet, "/jobs/nope", nil, nil, http.StatusNotFound, ""},
		{"DELETE unknown job", http.MethodDelete, "/jobs/nope", nil, nil, http.StatusNotFound, ""},
		{"events of unknown job", http.MethodGet, "/jobs/nope/events", nil, nil, http.StatusNotFound, ""},
		{"checkpoint of unknown job", http.MethodGet, "/jobs/nope/checkpoint", nil, nil, http.StatusNotFound, ""},
		// Nodes never call the coordinator: neither tier serves node
		// registration or takes a pushed checkpoint.
		{"no registration", http.MethodPost, "/cluster/register", []byte(`{}`), nil, http.StatusNotFound, ""},
		{"no checkpoint push", http.MethodPost, "/cluster/checkpoints", []byte(`{}`), nil, http.StatusNotFound, ""},
		{"valid wait=1", http.MethodPost, "/solve?wait=1", marshal(valid),
			http.Header{obs.TraceHeader: {traceID}}, http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := ask(t, tc.method, nodes[0].srv.URL+tc.path, tc.body, tc.header)
			c := ask(t, tc.method, coord.URL+tc.path, tc.body, tc.header)
			if n.code != tc.code || c.code != tc.code || n.contentType != c.contentType {
				t.Fatalf("node %d %q, coordinator %d %q, want %d from both",
					n.code, n.contentType, c.code, c.contentType, tc.code)
			}
			if tc.code != http.StatusOK && !bytes.Equal(n.body, c.body) {
				t.Fatalf("node answered %s, coordinator %s", n.body, c.body)
			}
			if !bytes.HasPrefix(c.body, []byte(tc.prefix)) {
				t.Fatalf("answered %s, want the prefix %s", c.body, tc.prefix)
			}
			if tc.header != nil && (n.traceID != traceID || c.traceID != traceID) {
				t.Fatalf("trace ID echoed as %q by the node and %q by the coordinator, want %q",
					n.traceID, c.traceID, traceID)
			}
		})
	}
}

// TestClosedCoordinatorAnswersLikeDrainingNode: once closed, a
// coordinator refuses submissions and fails its liveness probe with 503,
// as a draining node does, and with the node's bodies.
func TestClosedCoordinatorAnswersLikeDrainingNode(t *testing.T) {
	svc := service.New(service.Config{})
	node := httptest.NewServer(svc.Handler())
	defer node.Close()
	coord, err := cluster.New(cluster.Config{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer front.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(ctx); err != nil {
		t.Fatal(err)
	}

	body := submitBody(t, genProblem(6, 43), service.SolveOptions{MaxIterations: 3, Workers: 1})
	batch := []byte(`{"jobs":[` + string(body) + `]}`)
	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"solve", http.MethodPost, "/solve", body},
		{"batch", http.MethodPost, "/solve/batch", batch},
		{"healthz", http.MethodGet, "/healthz", nil},
	} {
		n := ask(t, tc.method, node.URL+tc.path, tc.body, nil)
		c := ask(t, tc.method, front.URL+tc.path, tc.body, nil)
		if c.code != http.StatusServiceUnavailable || n.code != c.code ||
			n.contentType != c.contentType || !bytes.Equal(n.body, c.body) {
			t.Errorf("%s: closed coordinator answered %d %q %s, draining node %d %q %s",
				tc.name, c.code, c.contentType, c.body, n.code, n.contentType, n.body)
		}
	}
}
