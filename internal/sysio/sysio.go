// Package sysio serializes complete design-optimization problems —
// application, architecture, WCET table, fault model and designer
// constraints — to a single human-editable JSON document, used by the
// command-line tools.
package sysio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
)

//
//ftdse:wire
type problemJSON struct {
	Application      json.RawMessage               `json:"application"`
	Architecture     []string                      `json:"architecture"`
	WCETMs           map[string]map[string]float64 `json:"wcet_ms"`
	Faults           faultJSON                     `json:"faults"`
	FixedMapping     map[string]string             `json:"fixed_mapping,omitempty"`
	ForceReexecution []string                      `json:"force_reexecution,omitempty"`
	ForceReplication []string                      `json:"force_replication,omitempty"`
}

//
//ftdse:wire
type faultJSON struct {
	K    int     `json:"k"`
	MuMs float64 `json:"mu_ms"`
}

// WriteProblem serializes a problem. Process names must be unique
// across the whole application (they key the WCET table). A problem
// without an application, architecture or WCET table is an error.
func WriteProblem(w io.Writer, p core.Problem) error {
	if p.App == nil || p.Arch == nil || p.WCET == nil {
		return fmt.Errorf("sysio: incomplete problem")
	}
	names, err := uniqueNames(p.App)
	if err != nil {
		return err
	}
	var appBuf bytes.Buffer
	if err := p.App.WriteJSON(&appBuf); err != nil {
		return err
	}
	out := problemJSON{
		Application: json.RawMessage(appBuf.Bytes()),
		Faults:      faultJSON{K: p.Faults.K, MuMs: p.Faults.Mu.Milliseconds()},
		WCETMs:      map[string]map[string]float64{},
	}
	for _, n := range p.Arch.Nodes() {
		out.Architecture = append(out.Architecture, n.Name)
	}
	for id, name := range names {
		row := map[string]float64{}
		for _, n := range p.WCET.AllowedNodes(id) {
			row[p.Arch.Node(n).Name] = p.WCET.MustGet(id, n).Milliseconds()
		}
		out.WCETMs[name] = row
	}
	if len(p.FixedMapping) > 0 {
		out.FixedMapping = map[string]string{}
		for id, n := range p.FixedMapping {
			out.FixedMapping[names[id]] = p.Arch.Node(n).Name
		}
	}
	out.ForceReexecution = sortedNames(p.ForceReexecution, names)
	out.ForceReplication = sortedNames(p.ForceReplication, names)

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func sortedNames(set map[model.ProcID]bool, names map[model.ProcID]string) []string {
	var out []string
	for id, on := range set {
		if on {
			out = append(out, names[id])
		}
	}
	sort.Strings(out)
	return out
}

// sortedKeys returns the keys of m in ascending order, so document
// walks visit entries (and pick error messages) deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ReadProblem parses and validates a problem document.
func ReadProblem(r io.Reader) (core.Problem, error) {
	var in problemJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return core.Problem{}, fmt.Errorf("sysio: decoding problem: %w", err)
	}
	app, err := model.ReadJSON(bytes.NewReader(in.Application))
	if err != nil {
		return core.Problem{}, err
	}
	names, err := uniqueNames(app)
	if err != nil {
		return core.Problem{}, err
	}
	byName := make(map[string]model.ProcID, len(names))
	for id, name := range names {
		byName[name] = id
	}
	if len(in.Architecture) == 0 {
		return core.Problem{}, fmt.Errorf("sysio: empty architecture")
	}
	a := arch.NewNamed(in.Architecture...)
	nodeByName := map[string]arch.NodeID{}
	for _, n := range a.Nodes() {
		if _, dup := nodeByName[n.Name]; dup {
			return core.Problem{}, fmt.Errorf("sysio: duplicate node name %q", n.Name)
		}
		nodeByName[n.Name] = n.ID
	}
	w := arch.NewWCET()
	for _, pname := range sortedKeys(in.WCETMs) {
		row := in.WCETMs[pname]
		id, ok := byName[pname]
		if !ok {
			return core.Problem{}, fmt.Errorf("sysio: WCET for unknown process %q", pname)
		}
		for _, nname := range sortedKeys(row) {
			ms := row[nname]
			n, ok := nodeByName[nname]
			if !ok {
				return core.Problem{}, fmt.Errorf("sysio: WCET of %q on unknown node %q", pname, nname)
			}
			if ms <= 0 {
				return core.Problem{}, fmt.Errorf("sysio: non-positive WCET of %q on %q", pname, nname)
			}
			w.Set(id, n, model.Time(math.Round(ms*float64(model.Millisecond))))
		}
	}
	p := core.Problem{
		App:    app,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: in.Faults.K, Mu: model.Time(math.Round(in.Faults.MuMs * float64(model.Millisecond)))},
	}
	if len(in.FixedMapping) > 0 {
		p.FixedMapping = map[model.ProcID]arch.NodeID{}
		for _, pname := range sortedKeys(in.FixedMapping) {
			nname := in.FixedMapping[pname]
			id, ok := byName[pname]
			if !ok {
				return core.Problem{}, fmt.Errorf("sysio: fixed mapping of unknown process %q", pname)
			}
			n, ok := nodeByName[nname]
			if !ok {
				return core.Problem{}, fmt.Errorf("sysio: fixed mapping to unknown node %q", nname)
			}
			p.FixedMapping[id] = n
		}
	}
	p.ForceReexecution, err = nameSet(in.ForceReexecution, byName)
	if err != nil {
		return core.Problem{}, err
	}
	p.ForceReplication, err = nameSet(in.ForceReplication, byName)
	if err != nil {
		return core.Problem{}, err
	}
	if err := p.Validate(); err != nil {
		return core.Problem{}, err
	}
	return p, nil
}

func nameSet(names []string, byName map[string]model.ProcID) (map[model.ProcID]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := map[model.ProcID]bool{}
	for _, n := range names {
		id, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("sysio: constraint references unknown process %q", n)
		}
		out[id] = true
	}
	return out, nil
}

// uniqueNames returns the application-wide process-name table, failing
// on duplicates.
func uniqueNames(app *model.Application) (map[model.ProcID]string, error) {
	names := make(map[model.ProcID]string, app.NumProcesses())
	seen := map[string]bool{}
	for _, p := range app.Processes() {
		if seen[p.Name] {
			return nil, fmt.Errorf("sysio: duplicate process name %q (names must be unique application-wide)", p.Name)
		}
		seen[p.Name] = true
		names[p.ID] = p.Name
	}
	return names, nil
}
