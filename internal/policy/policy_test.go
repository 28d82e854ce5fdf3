package policy

import (
	"testing"
	"testing/quick"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
)

func testWCET(procs int, nodes int) *arch.WCET {
	w := arch.NewWCET()
	for p := 0; p < procs; p++ {
		for n := 0; n < nodes; n++ {
			w.Set(model.ProcID(p), arch.NodeID(n), model.Ms(int64(10+10*p+n)))
		}
	}
	return w
}

func TestExecutions(t *testing.T) {
	cases := []struct {
		p    Policy
		want int
	}{
		{Reexecution(0, 2), 3},
		{Replication(0, 1, 2), 3},
		{Distribute([]arch.NodeID{0, 1}, 2), 3},
		{Policy{Replicas: []Replica{{Node: 0, Reexec: 1}, {Node: 1}}}, 3},
	}
	for _, c := range cases {
		if got := c.p.Executions(); got != c.want {
			t.Errorf("%v.Executions() = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestDistribute(t *testing.T) {
	// k=2 on two nodes: Figure 2c — replica 1 re-executed once, replica 2 not.
	p := Distribute([]arch.NodeID{0, 1}, 2)
	if len(p.Replicas) != 2 || p.Executions() != 3 {
		t.Fatalf("Distribute = %v", p)
	}
	if p.Replicas[0].Reexec != 1 || p.Replicas[1].Reexec != 0 {
		t.Errorf("Distribute spread = %v, want reexec [1 0]", p)
	}
	// one node degenerates to pure re-execution
	if q := Distribute([]arch.NodeID{3}, 4); q.Replicas[0].Reexec != 4 {
		t.Errorf("Distribute single node = %v", q)
	}
	// k+1 nodes degenerate to pure replication
	q := Distribute([]arch.NodeID{0, 1, 2}, 2)
	for _, r := range q.Replicas {
		if r.Reexec != 0 {
			t.Errorf("Distribute over k+1 nodes should not re-execute: %v", q)
		}
	}
	// more replicas than k+1 still gives one execution each
	q = Distribute([]arch.NodeID{0, 1, 2}, 1)
	if q.Executions() != 3 {
		t.Errorf("Distribute over 3 nodes with k=1 = %v", q)
	}
}

func TestDistributePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distribute with no nodes should panic")
		}
	}()
	Distribute(nil, 1)
}

func TestPolicyValidate(t *testing.T) {
	w := testWCET(1, 3)
	p0 := model.ProcID(0)
	if err := Reexecution(0, 2).Validate(2, w, p0); err != nil {
		t.Errorf("re-execution policy rejected: %v", err)
	}
	if err := Replication(0, 1, 2).Validate(2, w, p0); err != nil {
		t.Errorf("replication policy rejected: %v", err)
	}
	// not enough executions
	if err := Replication(0, 1).Validate(2, w, p0); err == nil {
		t.Error("accepted 2 executions for k=2")
	}
	// duplicate node
	dup := Policy{Replicas: []Replica{{Node: 0, Reexec: 1}, {Node: 0, Reexec: 1}}}
	if err := dup.Validate(2, w, p0); err == nil {
		t.Error("accepted two replicas on the same node")
	}
	// unmappable node
	if err := Reexecution(7, 2).Validate(2, w, p0); err == nil {
		t.Error("accepted replica on unmappable node")
	}
	// negative reexec
	neg := Policy{Replicas: []Replica{{Node: 0, Reexec: -1}}}
	if err := neg.Validate(0, w, p0); err == nil {
		t.Error("accepted negative re-execution count")
	}
	// empty
	if err := (Policy{}).Validate(0, w, p0); err == nil {
		t.Error("accepted empty policy")
	}
}

func TestPolicyHelpers(t *testing.T) {
	p := Distribute([]arch.NodeID{2, 0}, 2)
	if !p.UsesNode(2) || !p.UsesNode(0) || p.UsesNode(1) {
		t.Error("UsesNode wrong")
	}
	nodes := p.Nodes()
	if len(nodes) != 2 || nodes[0] != 2 || nodes[1] != 0 {
		t.Errorf("Nodes = %v", nodes)
	}
	if !p.Equal(p.Clone()) {
		t.Error("clone should be Equal")
	}
	if p.Equal(Policy{Replicas: []Replica{p.Replicas[1], p.Replicas[0]}}) {
		t.Error("different order should not be Equal")
	}
	q := p.Clone()
	q.Replicas[0].Reexec++
	if p.Equal(q) {
		t.Error("Clone must be deep")
	}
	if s := Reexecution(0, 2).String(); s != "{N1+2x}" {
		t.Errorf("String = %q", s)
	}
}

// TestValidateNamesLikeString: a rejected policy names its node as the
// printed design does (from N1) and its process by name, not by the
// zero-based IDs.
func TestValidateNamesLikeString(t *testing.T) {
	app := model.NewApplication("a")
	g := app.AddGraph("G", model.Ms(100), model.Ms(100))
	p := app.AddProcess(g, "Sensor")
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	pol := Reexecution(1, 1)
	if pol.String() != "{N2+1x}" {
		t.Fatalf("String = %s, want {N2+1x}", pol)
	}
	err = Assignment{p.ID: pol}.Validate(merged, testWCET(1, 1), 1)
	const want = "process Sensor: policy: cannot be mapped on node N2"
	if err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
}

func TestAssignmentCloneValidate(t *testing.T) {
	app := model.NewApplication("a")
	g := app.AddGraph("G", model.Ms(100), model.Ms(100))
	p := app.AddProcess(g, "P")
	q := app.AddProcess(g, "Q")
	g.AddEdge(p, q, 1)
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	w := testWCET(2, 2)
	asgn := Assignment{
		p.ID: Reexecution(0, 1),
		q.ID: Replication(0, 1),
	}
	if err := asgn.Validate(merged, w, 1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cl := asgn.Clone()
	cl[p.ID].Replicas[0].Reexec = 0
	if asgn[p.ID].Replicas[0].Reexec != 1 {
		t.Error("Clone must be deep")
	}
	delete(asgn, q.ID)
	if err := asgn.Validate(merged, w, 1); err == nil {
		t.Error("Validate accepted missing policy")
	}
}

func TestExpand(t *testing.T) {
	app := model.NewApplication("a")
	g := app.AddGraph("G", model.Ms(100), model.Ms(100))
	p := app.AddProcess(g, "P1")
	q := app.AddProcess(g, "P2")
	g.AddEdge(p, q, 2)
	merged, err := app.Merge()
	if err != nil {
		t.Fatal(err)
	}
	w := testWCET(2, 2)
	asgn := Assignment{
		p.ID: Distribute([]arch.NodeID{0, 1}, 2),
		q.ID: Reexecution(1, 2),
	}
	ex, err := Expand(merged, asgn, w)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if ex.NumInstances() != 3 {
		t.Fatalf("NumInstances = %d, want 3", ex.NumInstances())
	}
	mp := merged.Processes()
	pis := ex.Of(mp[0].ID)
	if len(pis) != 2 {
		t.Fatalf("P1 instances = %d, want 2", len(pis))
	}
	if pis[0].Name() != "P1/1" || pis[1].Name() != "P1/2" {
		t.Errorf("replica names = %q %q", pis[0].Name(), pis[1].Name())
	}
	if pis[0].Reexec != 1 || pis[1].Reexec != 0 {
		t.Errorf("replica reexec = %d %d", pis[0].Reexec, pis[1].Reexec)
	}
	if pis[0].WCET != model.Ms(10) || pis[1].WCET != model.Ms(11) {
		t.Errorf("replica WCET = %v %v", pis[0].WCET, pis[1].WCET)
	}
	qis := ex.Of(mp[1].ID)
	if len(qis) != 1 || qis[0].Name() != "P2" {
		t.Errorf("single replica should keep plain name, got %v", qis)
	}
	if ex.Graph() != merged {
		t.Error("Graph() should return the merged graph")
	}
}

func TestExpandErrors(t *testing.T) {
	app := model.NewApplication("a")
	g := app.AddGraph("G", model.Ms(100), model.Ms(100))
	p := app.AddProcess(g, "P")
	merged, _ := app.Merge()
	w := testWCET(1, 1)
	if _, err := Expand(merged, Assignment{}, w); err == nil {
		t.Error("Expand accepted missing policy")
	}
	if _, err := Expand(merged, Assignment{p.ID: Reexecution(5, 0)}, w); err == nil {
		t.Error("Expand accepted unmappable replica")
	}
}

// Property: Distribute always yields exactly max(k+1, r) executions on
// pairwise distinct nodes, with re-executions differing by at most one.
func TestDistributeProperty(t *testing.T) {
	f := func(r8, k8 uint8) bool {
		r := int(r8%5) + 1
		k := int(k8 % 8)
		nodes := make([]arch.NodeID, r)
		for i := range nodes {
			nodes[i] = arch.NodeID(i)
		}
		p := Distribute(nodes, k)
		want := k + 1
		if want < r {
			want = r
		}
		if p.Executions() != want {
			return false
		}
		minX, maxX := p.Replicas[0].Reexec, p.Replicas[0].Reexec
		for _, rep := range p.Replicas {
			if rep.Reexec < minX {
				minX = rep.Reexec
			}
			if rep.Reexec > maxX {
				maxX = rep.Reexec
			}
		}
		return maxX-minX <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointedPolicy(t *testing.T) {
	p := Checkpointed(1, 2, 3)
	if len(p.Replicas) != 1 || p.Executions() != 3 {
		t.Fatalf("Checkpointed = %v", p)
	}
	if p.Replicas[0].Checkpoints != 3 {
		t.Errorf("checkpoints = %d, want 3", p.Replicas[0].Checkpoints)
	}
	if s := p.String(); s != "{N2+2x/3c}" {
		t.Errorf("String = %q", s)
	}
	w := testWCET(1, 2)
	if err := p.Validate(2, w, model.ProcID(0)); err != nil {
		t.Errorf("valid checkpointed policy rejected: %v", err)
	}
	neg := Policy{Replicas: []Replica{{Node: 0, Reexec: 2, Checkpoints: -1}}}
	if err := neg.Validate(2, w, model.ProcID(0)); err == nil {
		t.Error("accepted negative checkpoint count")
	}
}

func TestInstanceCheckpointTimes(t *testing.T) {
	in := &Instance{WCET: model.Ms(40), Reexec: 2, Checkpoints: 3}
	if got := in.ExecTime(model.Ms(1)); got != model.Ms(43) {
		t.Errorf("ExecTime = %v, want 43ms", got)
	}
	if got := in.RecoverTime(model.Ms(5)); got != model.Ms(15) {
		t.Errorf("RecoverTime = %v, want 15ms (10ms segment + µ)", got)
	}
	// Without checkpoints the whole process is re-executed.
	plain := &Instance{WCET: model.Ms(40), Reexec: 2}
	if got := plain.ExecTime(model.Ms(1)); got != model.Ms(40) {
		t.Errorf("plain ExecTime = %v, want 40ms", got)
	}
	if got := plain.RecoverTime(model.Ms(5)); got != model.Ms(45) {
		t.Errorf("plain RecoverTime = %v, want 45ms", got)
	}
	// Segment length rounds up at microsecond granularity.
	odd := &Instance{WCET: model.Us(40000), Checkpoints: 2}
	if got := odd.RecoverTime(0); got != model.Us(13334) {
		t.Errorf("odd RecoverTime = %v, want 13.334ms", got)
	}
}
