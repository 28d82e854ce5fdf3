package model

import "fmt"

// Merge combines all graphs of the application into the single merged
// graph Γ used for scheduling and optimization (Section 5.1 of the
// paper). The merged graph's period is the hyper-period (LCM of all
// graph periods); each graph Gi is instantiated LCM/Ti times with its
// j-th instance released at j·Ti.
//
// Deadlines are folded into the instantiated processes: a process copy
// inherits the tighter of its individual deadline and its graph-instance
// deadline, both expressed as absolute times within the hyper-period.
// Process copies carry Origin (the source ProcID) and Instance (the
// hyper-period instance index), so WCET tables, mappings and policies of
// the source application apply to every copy.
func (a *Application) Merge() (*Graph, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	hp := a.HyperPeriod()
	merged := NewGraph(a.Name+"/merged", hp, hp)

	var next ProcID
	for _, g := range a.graphs {
		n := int(hp / g.Period)
		if Time(n)*g.Period != hp {
			return nil, fmt.Errorf("model: period %v of graph %q does not divide hyper-period %v", g.Period, g.Name, hp)
		}
		for inst := 0; inst < n; inst++ {
			offset := Time(inst) * g.Period
			idMap := make(map[ProcID]ProcID, g.NumProcesses())
			for _, p := range g.Processes() {
				dl := Time(0)
				if g.Deadline > 0 {
					dl = offset + g.Deadline
				}
				if p.Deadline > 0 {
					pd := offset + p.Deadline
					if dl <= 0 || pd < dl {
						dl = pd
					}
				}
				cp := &Process{
					ID:       next,
					Name:     instanceName(p.Name, inst, n),
					Release:  offset + p.Release,
					Deadline: dl,
					Origin:   p.ID,
					Instance: inst,
				}
				idMap[p.ID] = next
				next++
				merged.addProcess(cp)
			}
			for _, e := range g.Edges() {
				merged.edges = append(merged.edges, Edge{
					Src:   idMap[e.Src],
					Dst:   idMap[e.Dst],
					Bytes: e.Bytes,
				})
			}
		}
	}
	merged.adj.Store(nil)
	if _, err := merged.TopologicalOrder(); err != nil {
		return nil, err
	}
	return merged, nil
}

func instanceName(base string, inst, total int) string {
	if total == 1 {
		return base
	}
	return fmt.Sprintf("%s[%d]", base, inst)
}
