// Package gantt renders synthesized schedules as ASCII charts and
// schedule tables, for the CLI tools and the examples.
package gantt

import (
	"fmt"
	"sort"
	"strings"

	"repro/ftdse/internal/model"
	"repro/ftdse/internal/sched"
)

// Render draws the fault-free (nominal) schedule of every node plus the
// bus MEDL as an ASCII Gantt chart of the given width (minimum 40
// columns). The horizon is the worst-case schedule length, so the
// re-execution slack after the nominal schedule is visible as empty
// space.
func Render(s *sched.Schedule, width int) string {
	if width < 40 {
		width = 40
	}
	horizon := s.Makespan
	if h := s.Bus().Horizon(); h > horizon {
		horizon = h
	}
	if horizon <= 0 {
		return "(empty schedule)\n"
	}
	labelW := 5
	for _, n := range s.In.Arch.Nodes() {
		if len(n.Name) > labelW {
			labelW = len(n.Name)
		}
	}
	chartW := width - labelW - 2
	scale := func(t model.Time) int {
		c := int(int64(t) * int64(chartW) / int64(horizon))
		if c >= chartW {
			c = chartW - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	var b strings.Builder
	// Ruler.
	fmt.Fprintf(&b, "%*s  ", labelW, "")
	ruler := make([]byte, chartW)
	for i := range ruler {
		ruler[i] = ' '
	}
	for t := model.Time(0); t <= horizon; t += horizon / 4 {
		lbl := t.String()
		// A label that would run past the chart (the horizon's) ends at
		// its right edge instead.
		pos := max(min(scale(t), chartW-len(lbl)), 0)
		for i := 0; i < len(lbl) && pos+i < chartW; i++ {
			ruler[pos+i] = lbl[i]
		}
		if horizon/4 == 0 {
			break
		}
	}
	b.Write(ruler)
	b.WriteByte('\n')

	for _, n := range s.In.Arch.Nodes() {
		row := make([]byte, chartW)
		for i := range row {
			row[i] = '.'
		}
		for _, it := range s.NodeSequence(n.ID) {
			from, to := scale(it.NominalStart), scale(it.NominalFinish)
			if to <= from {
				to = from + 1
			}
			name := it.Inst.Name()
			for i := from; i < to && i < chartW; i++ {
				off := i - from
				switch {
				case off == 0:
					row[i] = '|'
				case off-1 < len(name):
					row[i] = name[off-1]
				default:
					row[i] = '='
				}
			}
		}
		fmt.Fprintf(&b, "%*s  %s\n", labelW, n.Name, row)
	}

	// Bus row.
	row := make([]byte, chartW)
	for i := range row {
		row[i] = '.'
	}
	for _, tr := range s.MEDL() {
		from, to := scale(tr.Start), scale(tr.Arrival)
		if to <= from {
			to = from + 1
		}
		for i := from; i < to && i < chartW; i++ {
			if i == from {
				row[i] = '|'
			} else {
				row[i] = 'm'
			}
		}
	}
	fmt.Fprintf(&b, "%*s  %s\n", labelW, "bus", row)
	return b.String()
}

// Table prints the synthesized schedule tables: per node the ordered
// process activations with nominal window and worst-case completion,
// and the MEDL of the bus.
func Table(s *sched.Schedule) string {
	var b strings.Builder
	for _, n := range s.In.Arch.Nodes() {
		fmt.Fprintf(&b, "node %s:\n", n.Name)
		seq := s.NodeSequence(n.ID)
		if len(seq) == 0 {
			b.WriteString("  (idle)\n")
			continue
		}
		for _, it := range seq {
			fmt.Fprintf(&b, "  %-18s start %8s  end %8s  worst-case %8s\n",
				it.Inst.Name(), it.NominalStart, it.NominalFinish, it.WCFinish)
		}
	}
	medl := s.MEDL()
	fmt.Fprintf(&b, "bus MEDL (%d transmissions):\n", len(medl))
	for _, tr := range medl {
		fmt.Fprintf(&b, "  %-22s round %3d slot %d  [%8s, %8s)\n",
			tr.Label, tr.Round, tr.Slot, tr.Start, tr.Arrival)
	}
	return b.String()
}

// Summary prints the per-process worst-case completions against their
// deadlines, ordered by completion time.
func Summary(s *sched.Schedule) string {
	type row struct {
		name     string
		done     model.Time
		deadline model.Time
	}
	var rows []row
	for _, p := range s.In.Graph.Processes() {
		rows = append(rows, row{p.Name, s.ProcCompletion(p.ID), p.Deadline})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].done != rows[j].done {
			return rows[i].done < rows[j].done
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	for _, r := range rows {
		mark := ""
		if r.deadline > 0 && r.done > r.deadline {
			mark = "  MISSED (deadline " + r.deadline.String() + ")"
		}
		fmt.Fprintf(&b, "  %-18s completes by %8s%s\n", r.name, r.done, mark)
	}
	fmt.Fprintf(&b, "worst-case schedule length δ = %s", s.Makespan)
	if s.Schedulable() {
		b.WriteString("  (all deadlines met)\n")
	} else {
		fmt.Fprintf(&b, "  (UNSCHEDULABLE, tardiness %s)\n", s.Tardiness)
	}
	return b.String()
}
