// Package sysio owns every JSON document of the system: the problem —
// application, architecture, WCET table, fault model and designer
// constraints in one human-editable document, the input of the
// command-line tools and the solve service's wire payload — and the
// schedule, checkpoint and trace exports.
package sysio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/core"
	"repro/ftdse/internal/fault"
	"repro/ftdse/internal/model"
)

// The problem document references processes by name, which keeps files
// human-editable; IDs are (re)assigned on load. All times are given in
// milliseconds and may be fractional down to one microsecond.
//
//ftdse:wire
type problemJSON struct {
	Application      appJSON                       `json:"application"`
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
	K     int     `json:"k"`
	MuMs  float64 `json:"mu_ms"`
	ChiMs float64 `json:"chi_ms,omitempty"`
}

type appJSON struct {
	Name   string      `json:"name"`
	Graphs []graphJSON `json:"graphs"`
}

type graphJSON struct {
	Name       string     `json:"name"`
	PeriodMs   float64    `json:"period_ms"`
	DeadlineMs float64    `json:"deadline_ms,omitempty"`
	Processes  []procJSON `json:"processes"`
	Edges      []edgeJSON `json:"edges"`
}

type procJSON struct {
	Name       string  `json:"name"`
	ReleaseMs  float64 `json:"release_ms,omitempty"`
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

type edgeJSON struct {
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Bytes int    `json:"bytes"`
}

func msToTime(ms float64) model.Time {
	return model.Time(math.Round(ms * float64(model.Millisecond)))
}

// decodeStrict decodes the one JSON value r holds into v, rejecting
// unknown fields and any content after the value. Every reader of this
// package parses through it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing content after JSON value")
	}
	return nil
}

// WriteProblem serializes a problem as the indented, human-editable
// document. Process names must be unique across the whole application
// (they key the WCET table). A problem without an application,
// architecture or WCET table is an error.
func WriteProblem(w io.Writer, p core.Problem) error {
	doc, err := problemDoc(p)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// MarshalProblem returns the compact form of WriteProblem's document:
// exactly the bytes json.Compact makes of WriteProblem's output, which
// is the form a document takes inside a solve request. encoding/json
// indents its compact encoding, so marshalling the same value without
// an indent gives these bytes in one pass.
func MarshalProblem(p core.Problem) ([]byte, error) {
	doc, err := problemDoc(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// problemDoc is the document value both problem encodings marshal.
func problemDoc(p core.Problem) (problemJSON, error) {
	if p.App == nil || p.Arch == nil || p.WCET == nil {
		return problemJSON{}, fmt.Errorf("sysio: incomplete problem")
	}
	names, err := uniqueNames(p.App)
	if err != nil {
		return problemJSON{}, err
	}
	out := problemJSON{
		Application: writeApp(p.App, names),
		Faults: faultJSON{
			K:     p.Faults.K,
			MuMs:  p.Faults.Mu.Milliseconds(),
			ChiMs: p.Faults.Chi.Milliseconds(),
		},
		WCETMs: map[string]map[string]float64{},
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
	return out, nil
}

// writeApp is the application part of a problem document; names is the
// application-wide name table, which also names the edge ends.
func writeApp(a *model.Application, names map[model.ProcID]string) appJSON {
	out := appJSON{Name: a.Name}
	for _, g := range a.Graphs() {
		gj := graphJSON{
			Name:       g.Name,
			PeriodMs:   g.Period.Milliseconds(),
			DeadlineMs: g.Deadline.Milliseconds(),
		}
		for _, p := range g.Processes() {
			gj.Processes = append(gj.Processes, procJSON{
				Name:       p.Name,
				ReleaseMs:  p.Release.Milliseconds(),
				DeadlineMs: p.Deadline.Milliseconds(),
			})
		}
		for _, e := range g.Edges() {
			gj.Edges = append(gj.Edges, edgeJSON{Src: names[e.Src], Dst: names[e.Dst], Bytes: e.Bytes})
		}
		out.Graphs = append(out.Graphs, gj)
	}
	return out
}

// readApp builds and validates the application of a problem document.
// Edges name processes of their own graph.
func readApp(in appJSON) (*model.Application, error) {
	app := model.NewApplication(in.Name)
	for _, gj := range in.Graphs {
		g := app.AddGraph(gj.Name, msToTime(gj.PeriodMs), msToTime(gj.DeadlineMs))
		byName := make(map[string]*model.Process, len(gj.Processes))
		for _, pj := range gj.Processes {
			if _, dup := byName[pj.Name]; dup {
				return nil, fmt.Errorf("sysio: graph %q has duplicate process name %q", gj.Name, pj.Name)
			}
			p := app.AddProcess(g, pj.Name)
			p.Release = msToTime(pj.ReleaseMs)
			p.Deadline = msToTime(pj.DeadlineMs)
			byName[pj.Name] = p
		}
		for _, ej := range gj.Edges {
			src, ok := byName[ej.Src]
			if !ok {
				return nil, fmt.Errorf("sysio: graph %q edge references unknown process %q", gj.Name, ej.Src)
			}
			dst, ok := byName[ej.Dst]
			if !ok {
				return nil, fmt.Errorf("sysio: graph %q edge references unknown process %q", gj.Name, ej.Dst)
			}
			g.AddEdge(src, dst, ej.Bytes)
		}
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
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
	if err := decodeStrict(r, &in); err != nil {
		return core.Problem{}, fmt.Errorf("sysio: decoding problem: %w", err)
	}
	app, err := readApp(in.Application)
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
			w.Set(id, n, msToTime(ms))
		}
	}
	p := core.Problem{
		App:    app,
		Arch:   a,
		WCET:   w,
		Faults: fault.Model{K: in.Faults.K, Mu: msToTime(in.Faults.MuMs), Chi: msToTime(in.Faults.ChiMs)},
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
