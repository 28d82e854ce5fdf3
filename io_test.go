package ftdse_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/bench"
	"repro/ftdse/client"
	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// everyFieldDoc is a hand-written problem document that sets every
// field the format has: names that JSON escapes (<, &, ") and non-ASCII
// ones, two graphs of different periods, graph and process deadlines,
// release times, fractional milliseconds, a fixed mapping, both force
// sets and a graph without edges.
const everyFieldDoc = `{
  "application": {
    "name": "pin <all> & \"every\" field ü",
    "graphs": [
      {
        "name": "Ctl<&>",
        "period_ms": 100,
        "deadline_ms": 90,
        "processes": [
          {"name": "Sense\"ü\"", "release_ms": 2.5},
          {"name": "A<b>", "deadline_ms": 60.125},
          {"name": "C&d", "release_ms": 1, "deadline_ms": 80},
          {"name": "Act"}
        ],
        "edges": [
          {"src": "Sense\"ü\"", "dst": "A<b>", "bytes": 4},
          {"src": "Sense\"ü\"", "dst": "C&d", "bytes": 2},
          {"src": "A<b>", "dst": "Act", "bytes": 8},
          {"src": "C&d", "dst": "Act", "bytes": 1}
        ]
      },
      {
        "name": "Log",
        "period_ms": 200,
        "processes": [{"name": "Störe"}],
        "edges": []
      }
    ]
  },
  "architecture": ["N1", "N<2>", "Nü3"],
  "wcet_ms": {
    "Sense\"ü\"": {"N1": 4.25, "N<2>": 5},
    "A<b>": {"N1": 10, "N<2>": 12.5, "Nü3": 11},
    "C&d": {"N1": 7, "N<2>": 6, "Nü3": 8.001},
    "Act": {"N<2>": 3, "Nü3": 3.5},
    "Störe": {"N1": 20, "Nü3": 18}
  },
  "faults": {"k": 2, "mu_ms": 1.5},
  "fixed_mapping": {"Sense\"ü\"": "N1"},
  "force_reexecution": ["A<b>"],
  "force_replication": ["C&d"]
}`

// TestWriteProblemCanonical pins the canonical-encoding guarantee that
// the service's result cache relies on: WriteProblem → ReadProblem →
// WriteProblem is byte-identical, so the serialized document is a
// stable fingerprint key for a problem no matter how many round trips
// it has been through.
func TestWriteProblemCanonical(t *testing.T) {
	problems := map[string]ftdse.Problem{
		"generated": ftdse.GenerateProblem(
			ftdse.GenSpec{Procs: 12, Nodes: 3, Seed: 42},
			ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)}),
		"cruise-control": ftdse.CruiseControl(),
	}
	// A built problem exercising every constraint section (P_M, P_X,
	// P_R), whose map-backed encodings must serialize in a stable order.
	b := ftdse.NewProblem("constrained").Nodes(3)
	g := b.Graph("G", ftdse.Ms(1000), ftdse.Ms(500))
	p1 := g.Process("P1", ftdse.Ms(10), ftdse.Ms(11), ftdse.Ms(12))
	p2 := g.Process("P2", ftdse.Ms(20), ftdse.Ms(21), ftdse.Ms(22))
	p3 := g.Process("P3", ftdse.Ms(30), ftdse.Ms(31), ftdse.Ms(32))
	g.Edge(p1, p2, 4).Edge(p2, p3, 4)
	built, err := b.Faults(1, ftdse.Ms(5)).
		Pin(p1, 2).
		ForceReexecution(p2).
		ForceReplication(p3).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	problems["constrained"] = built

	for name, prob := range problems {
		var first bytes.Buffer
		if err := ftdse.WriteProblem(&first, prob); err != nil {
			t.Fatalf("%s: WriteProblem: %v", name, err)
		}
		back, err := ftdse.ReadProblem(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadProblem: %v", name, err)
		}
		var second bytes.Buffer
		if err := ftdse.WriteProblem(&second, back); err != nil {
			t.Fatalf("%s: re-WriteProblem: %v", name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: encoding is not canonical: round trip changed the bytes\nfirst:\n%s\nsecond:\n%s",
				name, first.String(), second.String())
		}
		// And a second round trip stays fixed too (the encoding is a
		// fixed point, not merely a 2-cycle).
		back2, err := ftdse.ReadProblem(bytes.NewReader(second.Bytes()))
		if err != nil {
			t.Fatalf("%s: second ReadProblem: %v", name, err)
		}
		var third bytes.Buffer
		if err := ftdse.WriteProblem(&third, back2); err != nil {
			t.Fatalf("%s: third WriteProblem: %v", name, err)
		}
		if !bytes.Equal(second.Bytes(), third.Bytes()) {
			t.Errorf("%s: second round trip changed the bytes", name)
		}
	}
}

// TestWriteProblemConcurrentFirstEncode encodes one never-encoded
// problem from two goroutines at once, as two clients submitting the
// same freshly generated problem do. Encoding reads the process graph;
// under -race this pins that reading a graph nobody has frozen yet
// never writes shared state, and both encodings must agree.
func TestWriteProblemConcurrentFirstEncode(t *testing.T) {
	prob := ftdse.GenerateProblem(
		ftdse.GenSpec{Procs: 30, Nodes: 3, Seed: 7},
		ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)})
	var docs [2]bytes.Buffer
	errs := make(chan error, len(docs))
	start := make(chan struct{})
	for i := range docs {
		go func(buf *bytes.Buffer) {
			<-start
			errs <- ftdse.WriteProblem(buf, prob)
		}(&docs[i])
	}
	close(start)
	for range docs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Fatal("concurrent encodings of one problem differ")
	}
}

// pinnedProblems is the problem set of the document pins: the six
// short-corpus problems, the cruise controller and the every-field
// document.
func pinnedProblems(t *testing.T) map[string]ftdse.Problem {
	t.Helper()
	probs := map[string]ftdse.Problem{"cruise-control": ftdse.CruiseControl()}
	for _, c := range bench.Corpus(1, true) {
		probs[strings.TrimSuffix(c.Name, "/"+c.Engine)] = c.Problem()
	}
	every, err := ftdse.ReadProblem(strings.NewReader(everyFieldDoc))
	if err != nil {
		t.Fatalf("every-field document: %v", err)
	}
	probs["every-field"] = every
	return probs
}

// TestProblemDocumentPinned pins the SHA-256 of WriteProblem's output,
// so a change to the document's bytes, key order or indentation shows:
// the document is the input of every request fingerprint and
// result-cache key.
func TestProblemDocumentPinned(t *testing.T) {
	probs := pinnedProblems(t)
	want := map[string]string{
		"cruise-control": "864cefab3ef75dc8c31bbc606a41ac503f561e8821bebbe5cd591a1145501ab3",
		"every-field":    "a71676f98e946da201a4c2bec1f4defe8a16d4b4f158af4539805519d5a8d8aa",
		"medium/chains":  "70fe8f15808865dbc37784a41404c29ed538be46deafe3f41cb99e4628649fd9",
		"medium/random":  "4e3207e34f53d93377de480540aa6f06b225ca7693423f6207dcb1982d9ed565",
		"medium/tree":    "ffe4f951709b150c402e2d56b4cd92e2cdf055e8ddd0ec5da69d4641e82810fc",
		"small/chains":   "40c6a00cdaee339f063dada629ce96f7548f256f08d73c1530c1eac34f69521a",
		"small/random":   "204d9888dbabc1a15a8da07c06911f3e2ec425e7bb67e975683311e3100c3efc",
		"small/tree":     "b08bcb2fe736ff8db0bfeb70e8556208837d3a6a63fa794f874011dbaf2fdf3e",
	}
	for name, p := range probs {
		var buf bytes.Buffer
		if err := ftdse.WriteProblem(&buf, p); err != nil {
			t.Fatalf("%s: WriteProblem: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: document sha256 %s, want %s", name, got, want[name])
		}
	}
	if len(want) != len(probs) {
		t.Errorf("%d pinned documents, want %d", len(want), len(probs))
	}
}

// wireDocumentSHA256 is the SHA-256 of the problem document a
// submission of each pinnedProblems entry puts on the wire.
var wireDocumentSHA256 = map[string]string{
	"cruise-control": "3e12b5a596276a2680b8d0434929af1d00da52a9336c3173ed02ce8c69635727",
	"every-field":    "150ba5486666240c2ef8c0dbe8b2b221d5954251a59d0ea335e763a6e0ce57f8",
	"medium/chains":  "056175e08c951dee6b48256d5727024d6edaa6f2e275834c895d1c2d6f30d45c",
	"medium/random":  "19b1408529a6dc028461de09e47716a66bb1f024b330e3c70997443005c11da2",
	"medium/tree":    "df913440a39bad7ca7ed1c2fa699806eb49ff159ea0875b2cf1a52ae9170b0ac",
	"small/chains":   "132334fcd0cd1c4572d6fa1c25d02b781cbe7f573a03117cf21bf5c1ac8484e0",
	"small/random":   "d9ceae75f62f63901d5590cd8ba25dccbfb1dc518c06bfcec5c82f2ed36b8bab",
	"small/tree":     "5cb166784a64e313bc44bb932b24102bdf4910350abf70eaee1209497a765cfb",
}

// TestProblemWireDocumentPinned pins the SHA-256 of the problem
// document a submission puts on the wire (client.NewRequest, then
// json.Marshal of the request), for the problems TestProblemDocumentPinned
// pins. The service keys its ProblemMemo by these bytes, so a change
// here makes every resubmission from an updated client miss the memo.
// The document a Problem carries must also be exactly the bytes sent.
func TestProblemWireDocumentPinned(t *testing.T) {
	probs := pinnedProblems(t)
	want := wireDocumentSHA256
	for name, p := range probs {
		req, err := client.NewRequest(p, service.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: NewRequest: %v", name, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var sent struct{ Problem json.RawMessage }
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		sum := sha256.Sum256(sent.Problem)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: wire document sha256 %s, want %s", name, got, want[name])
		}
		doc, err := p.AppendDocument(nil)
		if err != nil {
			t.Fatalf("%s: AppendDocument: %v", name, err)
		}
		if !bytes.Equal(doc, sent.Problem) {
			t.Errorf("%s: AppendDocument differs from the bytes sent:\n%s\n%s", name, doc, sent.Problem)
		}
	}
	if len(want) != len(probs) {
		t.Errorf("%d pinned documents, want %d", len(want), len(probs))
	}
}

// TestSubmissionBodiesPinned records the bodies client.Submit and
// client.SubmitWait send to a node, and the body a coordinator
// dispatches to it, for the problems TestProblemWireDocumentPinned
// pins. Each body must be exactly what json.Marshal writes for the
// request it decodes to, and carry the pinned problem document.
func TestSubmissionBodiesPinned(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	svc := service.New(service.Config{PoolWorkers: 1})
	h := svc.Handler()
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/solve" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading request: %v", err)
			}
			mu.Lock()
			sent = append(sent, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	coord, err := cluster.New(cluster.Config{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	if err := coord.Start(front.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		front.Close()
		coord.Close(ctx)
		node.Close()
		svc.Close(ctx)
	})

	direct, clustered := client.New(node.URL, node.Client()), client.New(front.URL, front.Client())
	opts := service.SolveOptions{MaxIterations: 1, Workers: 1}
	ctx := context.Background()
	for name, p := range pinnedProblems(t) {
		mu.Lock()
		sent = sent[:0]
		mu.Unlock()
		if _, err := direct.Submit(ctx, p, opts); err != nil {
			t.Fatalf("%s: Submit: %v", name, err)
		}
		if _, err := direct.SubmitWait(ctx, p, opts); err != nil {
			t.Fatalf("%s: SubmitWait: %v", name, err)
		}
		if st, err := clustered.SubmitWait(ctx, p, opts); err != nil || st.State != service.StateDone {
			t.Fatalf("%s: SubmitWait through the coordinator = %+v, %v", name, st, err)
		}
		mu.Lock()
		bodies := slices.Clone(sent)
		mu.Unlock()
		if len(bodies) != 3 {
			t.Fatalf("%s: the node received %d submissions, want Submit, SubmitWait and one dispatch", name, len(bodies))
		}
		for i, body := range bodies {
			var req service.SubmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("%s: body %d: %v", name, i, err)
			}
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s: body %d\n%s\nis not what json.Marshal writes for it\n%s", name, i, body, want)
			}
			sum := sha256.Sum256(req.Problem)
			if got := hex.EncodeToString(sum[:]); got != wireDocumentSHA256[name] {
				t.Errorf("%s: body %d carries a problem document with sha256 %s, want %s", name, i, got, wireDocumentSHA256[name])
			}
		}
	}
}

// TestMarshalScheduleIsCompactWriteSchedule checks that MarshalSchedule
// gives exactly the bytes json.Compact makes of WriteSchedule's output.
// The schedules are solved with and without checkpointing for the
// pinned problems, whose every-field document names processes, nodes
// and so MEDL labels with <, > and &, and for generated ones.
func TestMarshalScheduleIsCompactWriteSchedule(t *testing.T) {
	var probs []ftdse.Problem
	for _, p := range pinnedProblems(t) {
		probs = append(probs, p)
	}
	for seed := 1; seed <= 4; seed++ {
		probs = append(probs, ftdse.GenerateProblem(
			ftdse.GenSpec{Procs: 8 * seed, Nodes: 1 + seed, Seed: int64(seed)},
			ftdse.FaultModel{K: seed, Mu: ftdse.Ms(5)}))
	}
	escaped := false
	for _, ckpt := range []bool{false, true} {
		solver := ftdse.NewSolver(ftdse.WithMaxIterations(5), ftdse.WithCheckpointing(ckpt))
		for _, p := range probs {
			res, err := solver.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			var indented, want bytes.Buffer
			if err := ftdse.WriteSchedule(&indented, res.Schedule); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&want, indented.Bytes()); err != nil {
				t.Fatal(err)
			}
			got, err := ftdse.MarshalSchedule(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("MarshalSchedule differs from the compacted WriteSchedule:\n%s\n%s", got, want.Bytes())
			}
			escaped = escaped || bytes.Contains(got, []byte(`\u003c`))
		}
	}
	if !escaped {
		t.Fatal("no schedule held an escaped name")
	}
}
