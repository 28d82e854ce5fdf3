// Package dot exports synthesized fault-tolerant designs in Graphviz DOT
// format, for documentation and debugging.
package dot

import (
	"fmt"
	"io"
	"strings"

	"repro/ftdse/internal/policy"
	"repro/ftdse/internal/sched"
)

// WriteDesign emits a synthesized design: one cluster per node holding
// the replica instances in schedule order (annotated with their policy
// and nominal window), plus the data-flow edges between instances (bus
// messages labelled with their MEDL slot times).
func WriteDesign(w io.Writer, s *sched.Schedule) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", sanitize(s.In.Graph.Name))
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n")
	for _, n := range s.In.Arch.Nodes() {
		fmt.Fprintf(&b, "  subgraph cluster_n%d {\n    label=%q;\n", n.ID, n.Name)
		for _, it := range s.NodeSequence(n.ID) {
			fmt.Fprintf(&b, "    i%d [label=\"%s\\n[%v,%v)%s\"];\n",
				it.Inst.ID, it.Inst.Name(), it.NominalStart, it.NominalFinish,
				policyNote(it.Inst))
		}
		b.WriteString("  }\n")
	}
	for idx, e := range s.In.Graph.Edges() {
		for _, src := range s.Ex.Of(e.Src) {
			sit := s.Item(src.ID)
			for _, dst := range s.Ex.Of(e.Dst) {
				if src.Node == dst.Node {
					fmt.Fprintf(&b, "  i%d -> i%d;\n", src.ID, dst.ID)
					continue
				}
				if tr, ok := sit.Msg(idx); ok {
					fmt.Fprintf(&b, "  i%d -> i%d [style=dashed, label=\"bus [%v,%v)\"];\n",
						src.ID, dst.ID, tr.Start, tr.Arrival)
				}
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func policyNote(in *policy.Instance) string {
	var parts []string
	if in.Reexec > 0 {
		parts = append(parts, fmt.Sprintf("%dx re-exec", in.Reexec))
	}
	if in.Checkpoints > 0 {
		parts = append(parts, fmt.Sprintf("%d ckpt", in.Checkpoints))
	}
	if len(parts) == 0 {
		return ""
	}
	return "\\n" + strings.Join(parts, ", ")
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '"' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}
