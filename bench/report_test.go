package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// sampleReport builds a small deterministic report for the round-trip
// test.
func sampleReport() *Report {
	r := &Report{
		Rev:       "abc1234",
		Seed:      1,
		Short:     true,
		GoVersion: "go1.22",
		Cases: []CaseResult{
			{Name: "small/random/default", Size: "small", Shape: "random", Engine: "default",
				Procs: 10, Nodes: 2, K: 2, Iterations: 44, WallMS: 105.0,
				AllocsPerOp: 12000, BytesPerOp: 1_000_000, MakespanUS: 522000, Schedulable: true},
			{Name: "small/random/sa", Size: "small", Shape: "random", Engine: "sa",
				Procs: 10, Nodes: 2, K: 2, Iterations: 320, WallMS: 62.5,
				AllocsPerOp: 27000, BytesPerOp: 2_000_000, MakespanUS: 531000, Schedulable: true},
			{Name: "medium/tree/default", Size: "medium", Shape: "tree", Engine: "default",
				Procs: 20, Nodes: 3, K: 3, Iterations: 35, WallMS: 400.0,
				AllocsPerOp: 18000, BytesPerOp: 3_000_000, MakespanUS: 438000, Schedulable: true},
		},
	}
	r.ComputeSummary()
	return r
}

// TestReportRoundTrip: emit → parse → emit is lossless and
// byte-stable, so reports can be diffed across revisions.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var first bytes.Buffer
	if err := WriteReport(&first, r); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, parsed) {
		t.Fatalf("round trip lost data:\nwant %+v\ngot  %+v", r, parsed)
	}
	var second bytes.Buffer
	if err := WriteReport(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("re-emitted report is not byte-identical")
	}
	if !json.Valid(first.Bytes()) {
		t.Error("report is not valid JSON")
	}
}

// TestRunCorpusMeasures runs two real corpus cases end to end and
// checks the report invariants: positive measurements, correct summary
// aggregation, and a deterministic final cost.
func TestRunCorpusMeasures(t *testing.T) {
	cases := FilterCases(Corpus(1, true), "small/chains")
	if len(cases) != 2 {
		t.Fatalf("filter matched %d cases, want 2", len(cases))
	}
	report, err := RunCorpus(context.Background(), cases, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Summary.Cases != 2 || len(report.Cases) != 2 {
		t.Fatalf("summary = %+v", report.Summary)
	}
	for _, c := range report.Cases {
		if c.WallMS <= 0 || c.AllocsPerOp == 0 || c.BytesPerOp == 0 {
			t.Errorf("case %s has empty measurements: %+v", c.Name, c)
		}
		if c.Iterations <= 0 || c.MakespanUS <= 0 {
			t.Errorf("case %s has empty search outcome: %+v", c.Name, c)
		}
	}
	if report.Summary.P95WallMS < report.Summary.MedianWallMS {
		t.Errorf("p95 %.2f below median %.2f", report.Summary.P95WallMS, report.Summary.MedianWallMS)
	}
	// Costs are deterministic: a rerun of the same corpus finds the
	// same designs (wall time and allocations may differ).
	again, err := RunCorpus(context.Background(), cases, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Cases {
		if report.Cases[i].MakespanUS != again.Cases[i].MakespanUS ||
			report.Cases[i].TardinessUS != again.Cases[i].TardinessUS ||
			report.Cases[i].Iterations != again.Cases[i].Iterations {
			t.Errorf("case %s not deterministic across runs", report.Cases[i].Name)
		}
	}
}

// TestRunCorpusHonorsContext: a canceled context aborts the run with an
// error instead of returning a truncated report.
func TestRunCorpusHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCorpus(ctx, Corpus(1, true), nil); err == nil {
		t.Fatal("canceled corpus run returned a report")
	}
}
