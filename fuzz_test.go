package ftdse_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/ftdse"
	"repro/ftdse/bench"
)

// The I/O formats promise canonical serialization: the service cache
// keys solves by a fingerprint of the problem document, so two ways of
// writing the same problem must produce the same bytes. The fuzz
// targets pin the operational form of that promise — parse, re-write,
// re-parse, re-write: any document the reader accepts must reach a
// byte-identical fixed point after one normalizing write. Seed corpora
// come from the deterministic benchmark corpus, so the fuzzer starts
// from realistic documents of every size class and graph shape.

// fuzzProblemSeeds serializes the short benchmark corpus's problems.
func fuzzProblemSeeds(f *testing.F) [][]byte {
	f.Helper()
	seen := make(map[ftdse.GenSpec]bool)
	var out [][]byte
	for _, c := range bench.Corpus(1, true) {
		if seen[c.Spec] {
			continue // engines share specs; one seed per instance
		}
		seen[c.Spec] = true
		var buf bytes.Buffer
		if err := ftdse.WriteProblem(&buf, c.Problem()); err != nil {
			f.Fatalf("serializing corpus problem %s: %v", c.Name, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

func FuzzReadProblem(f *testing.F) {
	for _, seed := range fuzzProblemSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(everyFieldDoc))
	f.Add([]byte(strings.Replace(everyFieldDoc, `"mu_ms": 1.5`, `"mu_ms": 1.5, "chi_ms": 0.75`, 1)))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"application":{},"architecture":[],"wcet_ms":{},"faults":{"k":0,"mu_ms":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ftdse.ReadProblem(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first bytes.Buffer
		if err := ftdse.WriteProblem(&first, p); err != nil {
			t.Fatalf("accepted problem does not serialize: %v\ninput:\n%s", err, data)
		}
		p2, err := ftdse.ReadProblem(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanonical:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := ftdse.WriteProblem(&second, p2); err != nil {
			t.Fatalf("re-parsed problem does not serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("problem round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.Bytes(), second.Bytes())
		}
		// The document a submission sends is the compact form of the
		// same document, so the two encodings cannot drift apart.
		doc, err := p.AppendDocument(nil)
		if err != nil {
			t.Fatalf("accepted problem has no wire document: %v", err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, first.Bytes()); err != nil {
			t.Fatalf("WriteProblem output does not compact: %v", err)
		}
		if !bytes.Equal(doc, compact.Bytes()) {
			t.Fatalf("wire document differs from the compacted WriteProblem output:\nwire:\n%s\ncompact:\n%s",
				doc, compact.Bytes())
		}
	})
}

func FuzzReadCheckpoint(f *testing.F) {
	// Seed with real checkpoints: each distinct corpus problem's naive
	// single-node re-execution design snapshotted as an improvement (no
	// search — seeding must be fast and deterministic).
	for _, seed := range fuzzProblemSeeds(f) {
		p, err := ftdse.ReadProblem(bytes.NewReader(seed))
		if err != nil {
			f.Fatalf("re-reading corpus seed: %v", err)
		}
		d := ftdse.Design{}
		for _, proc := range p.Processes() {
			d[proc.ID] = ftdse.Reexecution(0, p.Faults().K)
		}
		s, err := p.Evaluate(d)
		if err != nil {
			f.Fatalf("evaluating naive design: %v", err)
		}
		c, err := ftdse.NewCheckpoint(p, "seed", ftdse.Improvement{
			Phase:       "initial",
			Cost:        ftdse.Cost{Tardiness: s.Tardiness, Makespan: s.Makespan},
			Design:      d,
			Schedulable: s.Schedulable(),
		})
		if err != nil {
			f.Fatalf("building checkpoint: %v", err)
		}
		var buf bytes.Buffer
		if err := ftdse.WriteCheckpoint(&buf, c); err != nil {
			f.Fatalf("serializing checkpoint: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"version":1,"iteration":0,"schedulable":false,"makespan_ms":1,"design":{"P":[{"node":"N1"}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ftdse.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first bytes.Buffer
		if err := ftdse.WriteCheckpoint(&first, c); err != nil {
			t.Fatalf("accepted checkpoint does not serialize: %v\ninput:\n%s", err, data)
		}
		c2, err := ftdse.ReadCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanonical:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := ftdse.WriteCheckpoint(&second, c2); err != nil {
			t.Fatalf("re-parsed checkpoint does not serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("checkpoint round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}

func FuzzReadTrace(f *testing.F) {
	// Seed with real flight-recorder captures: a tiny deterministic
	// solve per distinct corpus problem (one tabu iteration, one
	// worker), so the fuzzer starts from traces with every event kind.
	for _, seed := range fuzzProblemSeeds(f) {
		p, err := ftdse.ReadProblem(bytes.NewReader(seed))
		if err != nil {
			f.Fatalf("re-reading corpus seed: %v", err)
		}
		res, err := ftdse.NewSolver(
			ftdse.WithMaxIterations(1),
			ftdse.WithWorkers(1),
			ftdse.WithFlightRecorder(512),
		).Solve(context.Background(), p)
		if err != nil {
			f.Fatalf("solving corpus seed: %v", err)
		}
		var buf bytes.Buffer
		if err := ftdse.WriteTrace(&buf, res.Trace); err != nil {
			f.Fatalf("serializing trace: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{\"version\":1,\"dropped\":0}\n"))
	f.Add([]byte("{\"version\":1,\"dropped\":3}\n{\"seq\":4,\"elapsed_ms\":0.5,\"kind\":\"run_start\",\"strategy\":\"MXR\",\"engine\":\"default\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ftdse.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first bytes.Buffer
		if err := ftdse.WriteTrace(&first, tr); err != nil {
			t.Fatalf("accepted trace does not serialize: %v\ninput:\n%s", err, data)
		}
		tr2, err := ftdse.ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanonical:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := ftdse.WriteTrace(&second, tr2); err != nil {
			t.Fatalf("re-parsed trace does not serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trace round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}

func FuzzReadSchedule(f *testing.F) {
	// Seed with real exports: each distinct corpus problem scheduled
	// under a naive single-node re-execution design (no search — seeding
	// must be fast and deterministic).
	for _, seed := range fuzzProblemSeeds(f) {
		p, err := ftdse.ReadProblem(bytes.NewReader(seed))
		if err != nil {
			f.Fatalf("re-reading corpus seed: %v", err)
		}
		d := ftdse.Design{}
		for _, proc := range p.Processes() {
			d[proc.ID] = ftdse.Reexecution(0, p.Faults().K)
		}
		s, err := p.Evaluate(d)
		if err != nil {
			f.Fatalf("evaluating naive design: %v", err)
		}
		var buf bytes.Buffer
		if err := ftdse.WriteSchedule(&buf, s); err != nil {
			f.Fatalf("serializing schedule: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"schedulable":true,"makespan_ms":0,"fault_model":{"k":0,"mu_ms":0},"nodes":null,"medl":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ftdse.ReadSchedule(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		var first bytes.Buffer
		if err := ftdse.WriteScheduleDoc(&first, doc); err != nil {
			t.Fatalf("accepted schedule does not serialize: %v\ninput:\n%s", err, data)
		}
		doc2, err := ftdse.ReadSchedule(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanonical:\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := ftdse.WriteScheduleDoc(&second, doc2); err != nil {
			t.Fatalf("re-parsed schedule does not serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("schedule round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}
