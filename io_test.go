package ftdse_test

import (
	"bytes"
	"testing"

	"repro/ftdse"
)

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
