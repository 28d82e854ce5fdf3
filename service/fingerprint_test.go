package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/ftdse"
	"repro/ftdse/service"
)

// TestFingerprintPinned pins absolute fingerprints, so a change to the
// problem encoding or to the canonical option rendering shows: every
// cached result, coalescing key and coordinator checkpoint index is
// keyed by these values, in every process of a cluster.
func TestFingerprintPinned(t *testing.T) {
	probs := map[string]ftdse.Problem{
		"gen10":  genProblem(10, 13),
		"gen16":  ftdse.GenerateProblem(ftdse.GenSpec{Procs: 16, Nodes: 3, Seed: 4}, ftdse.FaultModel{K: 2, Mu: ftdse.Ms(5)}),
		"cruise": ftdse.CruiseControl(),
	}
	// One option set per dimension the canonical rendering covers.
	off := false
	opts := map[string]service.SolveOptions{
		"default":       {},
		"sa":            {Engine: "sa", Seed: 7, MaxIterations: 40},
		"portfolio":     {Engine: "portfolio", StopWhenSchedulable: true, Workers: 2},
		"timed":         {TimeLimitMs: 250, Workers: 3},
		"checkpointing": {Checkpointing: true, Strategy: "MX"},
		"slack-off":     {SlackSharing: &off, BusOptimization: true},
		"flight":        {FlightRecorder: true, Engine: "tabu"},
		"greedy-mr":     {Strategy: "mr", Engine: "greedy", MaxIterations: 12, Seed: 99},
	}
	want := map[string]string{
		"cruise/checkpointing": "sha256:667271bdfc71bb3d74ab9dc5540617d5068eebd7de6d52df7b565fdf3feb897b",
		"cruise/default":       "sha256:e3c1db519cd7b6a8165a3308ad60931891cda81fef8d2c22f6170a11178f291a",
		"cruise/flight":        "sha256:3736b789f6e6866dd49a89123b90d1cc26dece7c4a16d8834bba088910aa8c2a",
		"cruise/greedy-mr":     "sha256:5cfa7e00f4368f7ea87616079102cd2c1819899a6bee77145f470b47e41e70b2",
		"cruise/portfolio":     "sha256:951365f427541b84b2a6cb1f934c8db36578ba94a5388af4b416191a2de58995",
		"cruise/sa":            "sha256:aa32077f271a16421b2599a89cbb331752037e7d4973a1cd8810fda3ad90c6cb",
		"cruise/slack-off":     "sha256:aef4b4231c386f6732f53c689412bbbb6ab38ec4797bc46077155b5ad16a5cca",
		"cruise/timed":         "sha256:b2c76e9bc042c6f87125366d0e1936130a20495098eb99152eac5ff197d8e55c",
		"gen10/checkpointing":  "sha256:67316f0f6269db4e4424250abdadc7cc1eb6ad805a087a66a103cde20126492b",
		"gen10/default":        "sha256:7902080738822149abb21b53ef49dd1f304dcbda022b2448f90ecd44da06f76d",
		"gen10/flight":         "sha256:f5e43d5884998cbdcfb987b79d392a94652e1d269d22aca9e98be65c4747981b",
		"gen10/greedy-mr":      "sha256:0a0045f23e870c6c7561b5107da641f08344f8f633b3eb0ce2457183c82f45ac",
		"gen10/portfolio":      "sha256:fe43098ddd6876b02f8b1c25dc326ef9b04e5d30cd672a6c2f7709edd0517bd9",
		"gen10/sa":             "sha256:0199b0f55a3ffbbbe8d79329241224b88b54aaadb59b6d7ae465e22f52e24dbb",
		"gen10/slack-off":      "sha256:5e45356c8ebaf980f27e6c5424fe1a34e49054c3d861082528a32210383f4193",
		"gen10/timed":          "sha256:4ec17ef885808fc9631cf30e328e7821372236761be552afb89302bbd2239713",
		"gen16/checkpointing":  "sha256:9820995b1de224b25d2b9553cb62d4a43483e289859f86d8d3f245d97949d135",
		"gen16/default":        "sha256:3920d5ae1d6268b738627954f2bdb30d7376897cc9d16a5d53c3c8c936ee247b",
		"gen16/flight":         "sha256:5b10dac766f694940fe40f9869a00da77f4c67565011f2cb601391024913d8e1",
		"gen16/greedy-mr":      "sha256:c27a9fc11c36fc436900e80c4e155ccf1cede5a119d899f9f010c506c5f28156",
		"gen16/portfolio":      "sha256:8fce57a257b18ad621423929ce069bd28ab10b891554d5315498445411a647ba",
		"gen16/sa":             "sha256:c04332a4ad5fbbdeae5927029cad679c0a633ee852fd3b73120e505900846c4d",
		"gen16/slack-off":      "sha256:7dd169c358d712efa4dfc7bb35c77b186509bb47037c8b06dc69462096438b47",
		"gen16/timed":          "sha256:b1b5225355a9025d46d55f52dd39b8758bf13f3a02b796c35b302e0c2d63c0c5",
	}
	for pn, p := range probs {
		for on, o := range opts {
			fp, err := service.Fingerprint(p, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", pn, on, err)
			}
			if w := want[pn+"/"+on]; fp != w {
				t.Errorf("%s/%s: fingerprint %s, want %s", pn, on, fp, w)
			}
		}
	}
}

// TestRetiredOptionsSolveAsDefault: a request that still names the
// retired tabu_tenure or max_checkpoints options decodes (unknown
// fields are ignored), is keyed by the fingerprint of the same request
// without them, and is solved exactly as that request is.
func TestRetiredOptionsSolveAsDefault(t *testing.T) {
	p := genProblem(10, 13)
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	// solve runs one request on a fresh service, so nothing is cached.
	solve := func(opts string) (service.JobStatus, service.JobResult) {
		t.Helper()
		_, srv := newService(t, service.Config{PoolWorkers: 1})
		body := fmt.Sprintf(`{"problem":%s,"options":%s}`, doc.Bytes(), opts)
		st := postSolve(t, srv.URL, []byte(body), http.StatusOK, "wait")
		if st.State != service.StateDone || st.Cached {
			t.Fatalf("%s: state %q cached %v, want a fresh solve", opts, st.State, st.Cached)
		}
		var res service.JobResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatalf("%s: decoding result: %v", opts, err)
		}
		return st, res
	}
	cases := []struct {
		legacy string
		plain  service.SolveOptions
	}{
		{`{"max_iterations":20,"tabu_tenure":1}`, service.SolveOptions{MaxIterations: 20}},
		{`{"max_iterations":20,"tabu_tenure":-3}`, service.SolveOptions{MaxIterations: 20}},
		{`{"max_iterations":20,"checkpointing":true,"max_checkpoints":1}`,
			service.SolveOptions{MaxIterations: 20, Checkpointing: true}},
		{`{"engine":"sa","max_iterations":20,"checkpointing":true,"max_checkpoints":9,"tabu_tenure":2}`,
			service.SolveOptions{Engine: "sa", MaxIterations: 20, Checkpointing: true}},
	}
	for _, c := range cases {
		plainJSON, err := json.Marshal(c.plain)
		if err != nil {
			t.Fatal(err)
		}
		wantFP, err := service.Fingerprint(p, c.plain)
		if err != nil {
			t.Fatal(err)
		}
		st, got := solve(c.legacy)
		_, want := solve(string(plainJSON))
		if st.Fingerprint != wantFP {
			t.Errorf("%s: fingerprint %s, want %s", c.legacy, st.Fingerprint, wantFP)
		}
		if got.MakespanMs != want.MakespanMs || got.Iterations != want.Iterations ||
			!bytes.Equal(got.Schedule, want.Schedule) {
			t.Errorf("%s: solved to δ=%vms in %d iterations, want δ=%vms in %d with the same schedule",
				c.legacy, got.MakespanMs, got.Iterations, want.MakespanMs, want.Iterations)
		}
	}
}

// TestFingerprintTellsChiApart: the checkpoint overhead χ travels in the
// problem document, so a checkpointed design costs the same after a
// round trip, and a problem and its χ = 0 twin are different requests.
func TestFingerprintTellsChiApart(t *testing.T) {
	build := func(chi ftdse.Time) (ftdse.Problem, ftdse.Design) {
		b := ftdse.NewProblem("chi").Nodes(2)
		g := b.Graph("G", ftdse.Ms(400), ftdse.Ms(400))
		p1 := g.Process("P1", ftdse.Ms(30), ftdse.Ms(30))
		p2 := g.Process("P2", ftdse.Ms(40), ftdse.Ms(40))
		g.Edge(p1, p2, 4)
		p, err := b.Faults(2, ftdse.Ms(5)).CheckpointCost(chi).Build()
		if err != nil {
			t.Fatal(err)
		}
		return p, ftdse.Design{p1.ID: ftdse.Checkpointed(0, 2, 3), p2.ID: ftdse.Checkpointed(1, 2, 1)}
	}
	p, design := build(ftdse.Ms(3))
	twin, _ := build(0)
	var doc bytes.Buffer
	if err := ftdse.WriteProblem(&doc, p); err != nil {
		t.Fatal(err)
	}
	back, err := ftdse.ReadProblem(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults() != p.Faults() {
		t.Errorf("round trip: faults %v, want %v", back.Faults(), p.Faults())
	}
	var makespans []ftdse.Time
	for _, q := range []ftdse.Problem{p, back, twin} {
		s, err := q.Evaluate(design)
		if err != nil {
			t.Fatal(err)
		}
		makespans = append(makespans, s.Makespan)
	}
	if makespans[1] != makespans[0] || makespans[2] == makespans[0] {
		t.Errorf("checkpointed design: δ=%v, round trip δ=%v, χ=0 twin δ=%v; want the first two equal, the third apart",
			makespans[0], makespans[1], makespans[2])
	}
	opts := service.SolveOptions{Checkpointing: true}
	fp, err := service.Fingerprint(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	twinFP, err := service.Fingerprint(twin, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp == twinFP {
		t.Errorf("χ=3ms and χ=0 share fingerprint %s", fp)
	}
}
