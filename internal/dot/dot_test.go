package dot

import (
	"bytes"
	"strings"
	"testing"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
	"repro/ftdse/internal/ttp"
)

func buildSystem(t *testing.T) *sched.Schedule {
	t.Helper()
	app := model.NewApplication("dot test")
	g := app.AddGraph("G", model.Ms(1000), model.Ms(400))
	p1 := app.AddProcess(g, "P1")
	p2 := app.AddProcess(g, "P2")
	p1.Release = model.Ms(5)
	p2.Deadline = model.Ms(300)
	g.AddEdge(p1, p2, 3)
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
			p1.ID: policy.Distribute([]arch.NodeID{0, 1}, 1),
			p2.ID: policy.Checkpointed(1, 1, 2),
		},
		Bus:     ttp.InitialConfig(a, 4, ttp.DefaultPerByte),
		Options: sched.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteDesign(t *testing.T) {
	s := buildSystem(t)
	var buf bytes.Buffer
	if err := WriteDesign(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cluster_n0", "cluster_n1", // one cluster per node
		"P1/1", "P1/2", // replica instances
		"2 ckpt",       // checkpoint annotation
		"style=dashed", // bus edge
		"bus [",        // MEDL slot label
	} {
		if !strings.Contains(out, want) {
			t.Errorf("design dot missing %q:\n%s", want, out)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a\"b\nc"); got != "a_b_c" {
		t.Errorf("sanitize = %q", got)
	}
}
