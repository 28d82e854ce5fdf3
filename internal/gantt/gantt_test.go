package gantt

import (
	"strings"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

func buildSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	app := model.NewApplication("g")
	g := app.AddGraph("G", model.Ms(1000), model.Ms(300))
	p1 := app.AddProcess(g, "P1")
	p2 := app.AddProcess(g, "P2")
	g.AddEdge(p1, p2, 4)
	a := arch.New(2)
	w := arch.NewWCET()
	for n := arch.NodeID(0); n < 2; n++ {
		w.Set(p1.ID, n, model.Ms(40))
		w.Set(p2.ID, n, model.Ms(30))
	}
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(sched.Input{
		Graph:  merged,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: 1, Mu: model.Ms(10)},
		Assignment: policy.Assignment{
			p1.ID: policy.Reexecution(0, 1),
			p2.ID: policy.Reexecution(1, 1),
		},
		Bus:     ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: sched.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRender(t *testing.T) {
	s := buildSchedule(t)
	out := Render(s, 80)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Ruler + 2 nodes + bus.
	if len(lines) != 4 {
		t.Fatalf("render has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "N1") || !strings.Contains(lines[2], "N2") {
		t.Errorf("missing node labels:\n%s", out)
	}
	if !strings.Contains(lines[3], "m") {
		t.Errorf("bus row missing transmission:\n%s", out)
	}
	// The ruler ends with the whole horizon label, right-aligned.
	horizon := max(s.Makespan, s.Bus().Horizon())
	if !strings.HasSuffix(lines[0], " "+horizon.String()) {
		t.Errorf("ruler does not end with the horizon %v:\n%s", horizon, out)
	}
	// Narrow widths are clamped, not crashed.
	if small := Render(s, 1); small == "" {
		t.Error("narrow render empty")
	}
}

func TestTable(t *testing.T) {
	s := buildSchedule(t)
	out := Table(s)
	for _, want := range []string{"node N1", "node N2", "P1", "P2", "bus MEDL", "round"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	s := buildSchedule(t)
	out := Summary(s)
	if !strings.Contains(out, "P2") || !strings.Contains(out, "schedule length") {
		t.Errorf("summary: %s", out)
	}
	if !strings.Contains(out, "all deadlines met") {
		t.Errorf("summary should report schedulability: %s", out)
	}
}
