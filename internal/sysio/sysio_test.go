package sysio

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/ccapp"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/gen"
	"repro/ftdse/internal/model"
)

func TestRoundTripGenerated(t *testing.T) {
	p := gen.Problem(gen.Spec{Procs: 12, Nodes: 3, Seed: 4}, fault.Model{K: 2, Mu: model.Ms(5)})
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	back, err := ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if back.App.NumProcesses() != p.App.NumProcesses() {
		t.Errorf("processes: %d vs %d", back.App.NumProcesses(), p.App.NumProcesses())
	}
	if back.Arch.NumNodes() != p.Arch.NumNodes() {
		t.Errorf("nodes: %d vs %d", back.Arch.NumNodes(), p.Arch.NumNodes())
	}
	if back.Faults != p.Faults {
		t.Errorf("faults: %v vs %v", back.Faults, p.Faults)
	}
	// WCETs survive (IDs are reassigned in creation order, names map).
	for _, proc := range p.App.Processes() {
		var backID model.ProcID = -1
		for _, bp := range back.App.Processes() {
			if bp.Name == proc.Name {
				backID = bp.ID
				break
			}
		}
		if backID < 0 {
			t.Fatalf("process %q lost", proc.Name)
		}
		for _, n := range p.WCET.AllowedNodes(proc.ID) {
			want := p.WCET.MustGet(proc.ID, n)
			got, ok := back.WCET.Get(backID, n)
			if !ok || got != want {
				t.Errorf("WCET of %q on %d: %v vs %v", proc.Name, n, got, want)
			}
		}
	}
}

func TestRoundTripCruiseController(t *testing.T) {
	p := ccapp.New()
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	back, err := ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if len(back.FixedMapping) != len(p.FixedMapping) {
		t.Errorf("fixed mappings: %d vs %d", len(back.FixedMapping), len(p.FixedMapping))
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped CC invalid: %v", err)
	}
}

// appDoc wraps an application in a one-node document that gives
// processes P and Q a WCET.
func appDoc(app string) string {
	return `{"application": ` + app + `,
		"architecture": ["N1"],
		"wcet_ms": {"P": {"N1": 5}, "Q": {"N1": 5}},
		"faults": {"k": 0, "mu_ms": 0}}`
}

// validAppDoc is a document that ReadProblem accepts. Each case of
// TestReadProblemApplicationErrors breaks one rule of its application.
var validAppDoc = appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
	"processes": [{"name": "P"}, {"name": "Q"}],
	"edges": [{"src": "P", "dst": "Q", "bytes": 1}]}]}`)

// checkReadErrors requires ReadProblem to reject every case's document
// with an error that contains the case's text.
func checkReadErrors(t *testing.T, cases map[string]struct{ doc, want string }) {
	t.Helper()
	if _, err := ReadProblem(strings.NewReader(validAppDoc)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	for name, c := range cases {
		_, err := ReadProblem(strings.NewReader(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestReadProblemErrors: every part of a document outside the
// application is parsed strictly and checked, and the document is the
// whole input. Each case must be rejected for its own reason.
func TestReadProblemErrors(t *testing.T) {
	checkReadErrors(t, map[string]struct{ doc, want string }{
		"unknown wcet process": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {"Q": {"N1": 5}},
			"faults": {"k":0,"mu_ms":0}}`, `WCET for unknown process "Q"`},
		"unknown wcet node": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {"P": {"N9": 5}},
			"faults": {"k":0,"mu_ms":0}}`, `unknown node "N9"`},
		"no architecture": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": [],
			"wcet_ms": {"P": {"N1": 5}},
			"faults": {"k":0,"mu_ms":0}}`, `empty architecture`},
		"negative wcet": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {"P": {"N1": -5}},
			"faults": {"k":0,"mu_ms":0}}`, `non-positive WCET`},
		"unknown fixed process": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {"P": {"N1": 5}},
			"faults": {"k":0,"mu_ms":0},
			"fixed_mapping": {"Q": "N1"}}`, `fixed mapping of unknown process "Q"`},
		"unknown constraint": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {"P": {"N1": 5}},
			"faults": {"k":0,"mu_ms":0},
			"force_reexecution": ["Q"]}`, `constraint references unknown process "Q"`},
		"unmappable process": {`{
			"application": {"name":"a","graphs":[{"name":"G","period_ms":100,
				"processes":[{"name":"P"}],"edges":[]}]},
			"architecture": ["N1"],
			"wcet_ms": {},
			"faults": {"k":0,"mu_ms":0}}`, `has no allowed node`},
		"trailing content": {validAppDoc + ` {"not":"a problem"} trailing garbage`, "trailing content"},
	})
}

// TestReadProblemApplicationErrors: the application part of a document
// is parsed strictly, its names resolve and its graphs are acyclic.
// Each case must be rejected for its own reason.
func TestReadProblemApplicationErrors(t *testing.T) {
	checkReadErrors(t, map[string]struct{ doc, want string }{
		"unknown edge end": {appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
			"processes": [{"name": "P"}],
			"edges": [{"src": "P", "dst": "Q", "bytes": 1}]}]}`),
			`edge references unknown process "Q"`},
		"duplicate name": {appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
			"processes": [{"name": "P"}, {"name": "P"}], "edges": []}]}`),
			`duplicate process name "P"`},
		"duplicate name across graphs": {appDoc(`{"name": "x", "graphs": [
			{"name": "G", "period_ms": 10, "processes": [{"name": "P"}], "edges": []},
			{"name": "H", "period_ms": 20, "processes": [{"name": "P"}], "edges": []}]}`),
			"unique application-wide"},
		"unknown field": {appDoc(`{"name": "x", "bogus": 1, "graphs": []}`),
			`unknown field "bogus"`},
		"unknown graph field": {appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
			"priority": 1, "processes": [{"name": "P"}], "edges": []}]}`),
			`unknown field "priority"`},
		"unknown process field": {appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
			"processes": [{"name": "P", "wcet_ms": 5}], "edges": []}]}`),
			`unknown field "wcet_ms"`},
		"cycle": {appDoc(`{"name": "x", "graphs": [{"name": "G", "period_ms": 10,
			"processes": [{"name": "P"}, {"name": "Q"}],
			"edges": [{"src": "P", "dst": "Q", "bytes": 1}, {"src": "Q", "dst": "P", "bytes": 1}]}]}`),
			"contains a cycle"},
	})
}

// TestRoundTripApplication: the application part of a document keeps
// its name, graph timing, process windows and edges through a round
// trip.
func TestRoundTripApplication(t *testing.T) {
	app := model.NewApplication("diamond")
	g := app.AddGraph("G", model.Ms(100), model.Ms(90))
	a := app.AddProcess(g, "A")
	b := app.AddProcess(g, "B")
	c := app.AddProcess(g, "C")
	d := app.AddProcess(g, "D")
	b.Release = model.Ms(2)
	c.Deadline = model.Ms(70)
	g.AddEdge(a, b, 4)
	g.AddEdge(a, c, 2)
	g.AddEdge(b, d, 8)
	g.AddEdge(c, d, 1)
	w := arch.NewWCET()
	for _, p := range app.Processes() {
		w.Set(p.ID, 0, model.Ms(10))
	}
	p := core.Problem{App: app, Arch: arch.New(1), WCET: w, Faults: fault.Model{K: 1, Mu: model.Ms(5)}}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	back, err := ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if back.App.Name != app.Name {
		t.Errorf("name = %q, want %q", back.App.Name, app.Name)
	}
	if len(back.App.Graphs()) != 1 {
		t.Fatalf("graphs = %d, want 1", len(back.App.Graphs()))
	}
	bg := back.App.Graphs()[0]
	if bg.Name != g.Name || bg.Period != g.Period || bg.Deadline != g.Deadline {
		t.Errorf("graph %q %v/%v, want %q %v/%v", bg.Name, bg.Period, bg.Deadline, g.Name, g.Period, g.Deadline)
	}
	for i, bp := range bg.Processes() {
		if ap := g.Processes()[i]; bp.Name != ap.Name || bp.Release != ap.Release || bp.Deadline != ap.Deadline {
			t.Errorf("process %d = %q [%v, %v], want %q [%v, %v]",
				i, bp.Name, bp.Release, bp.Deadline, ap.Name, ap.Release, ap.Deadline)
		}
	}
	if len(bg.Edges()) != len(g.Edges()) {
		t.Fatalf("edges = %d, want %d", len(bg.Edges()), len(g.Edges()))
	}
	for i, e := range bg.Edges() {
		if e != g.Edges()[i] {
			t.Errorf("edge %d = %v, want %v", i, e, g.Edges()[i])
		}
	}
}

func TestReadProblemFractionalMs(t *testing.T) {
	const doc = `{
	  "application": {"name": "frac", "graphs": [{
	    "name": "G", "period_ms": 10.5, "deadline_ms": 9.875,
	    "processes": [{"name": "P", "release_ms": 0.25, "deadline_ms": 7.001}],
	    "edges": []
	  }]},
	  "architecture": ["N1"],
	  "wcet_ms": {"P": {"N1": 1.5}},
	  "faults": {"k": 1, "mu_ms": 0.125, "chi_ms": 0.002}
	}`
	p, err := ReadProblem(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	g := p.App.Graphs()[0]
	proc := g.Processes()[0]
	for _, c := range []struct {
		what      string
		got, want model.Time
	}{
		{"period", g.Period, model.Us(10500)},
		{"graph deadline", g.Deadline, model.Us(9875)},
		{"release", proc.Release, model.Us(250)},
		{"process deadline", proc.Deadline, model.Us(7001)},
		{"wcet", p.WCET.MustGet(proc.ID, 0), model.Us(1500)},
		{"mu", p.Faults.Mu, model.Us(125)},
		{"chi", p.Faults.Chi, model.Us(2)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

func TestWriteProblemRejectsDuplicateNames(t *testing.T) {
	app := model.NewApplication("dup")
	g := app.AddGraph("G", model.Ms(100), 0)
	app.AddProcess(g, "P")
	app.AddProcess(g, "P")
	w := arch.NewWCET()
	p := gen.Problem(gen.Spec{Procs: 2, Nodes: 1, Seed: 1}, fault.None)
	p.App = app
	p.WCET = w
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err == nil {
		t.Error("accepted duplicate process names")
	}
}

func TestWriteSchedule(t *testing.T) {
	p := gen.Problem(gen.Spec{Procs: 6, Nodes: 2, Seed: 2}, fault.Model{K: 1, Mu: model.Ms(5)})
	res, err := core.Optimize(p, func() core.Options {
		o := core.DefaultOptions(core.MXR)
		o.MaxIterations = 20
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, res.Schedule); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc["schedulable"] != true {
		t.Errorf("schedulable = %v", doc["schedulable"])
	}
	nodes, ok := doc["nodes"].([]any)
	if !ok || len(nodes) != 2 {
		t.Fatalf("nodes = %v", doc["nodes"])
	}
	total := 0
	for _, n := range nodes {
		tbl, _ := n.(map[string]any)["table"].([]any)
		total += len(tbl)
	}
	if total != res.Schedule.Ex.NumInstances() {
		t.Errorf("exported %d table entries, want %d", total, res.Schedule.Ex.NumInstances())
	}
}
