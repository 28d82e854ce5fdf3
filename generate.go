package ftdse

import (
	"fmt"
	"strings"

	"repro/ftdse/internal/gen"
)

// GenSpec describes one synthetic application for GenerateProblem,
// following the paper's evaluation setup (random/tree/chain graphs,
// 10–100 ms WCETs, 1–4 byte messages). The same spec always generates
// the same problem.
type GenSpec = gen.Spec

// GraphShape selects the generated graph structure.
type GraphShape = gen.Shape

const (
	// ShapeRandom generates a layered random DAG.
	ShapeRandom GraphShape = gen.Random
	// ShapeTree generates an in-tree (sensor fan-in).
	ShapeTree GraphShape = gen.Tree
	// ShapeChains generates independent process chains.
	ShapeChains GraphShape = gen.Chains
)

// WCETDist selects the execution-time distribution.
type WCETDist = gen.Dist

const (
	// DistUniform draws WCETs uniformly from the configured range.
	DistUniform WCETDist = gen.Uniform
	// DistExponential draws WCETs exponentially, clamped to the range.
	DistExponential WCETDist = gen.Exponential
)

// GenerateProblem builds a synthetic design problem from a spec and a
// fault hypothesis, as the paper's evaluation does.
func GenerateProblem(spec GenSpec, fm FaultModel) Problem {
	return newProblem(gen.Problem(spec, fm))
}

// ShapeNames returns the canonical lower-case names accepted by
// ParseShape, for flag usage strings.
func ShapeNames() []string {
	out := make([]string, 0, 3)
	for _, s := range []GraphShape{ShapeRandom, ShapeTree, ShapeChains} {
		out = append(out, strings.ToLower(s.String()))
	}
	return out
}

// ParseShape converts a shape name ("random", "tree", "chains") to its
// GraphShape; the inverse of GraphShape.String.
func ParseShape(name string) (GraphShape, error) {
	for _, s := range []GraphShape{ShapeRandom, ShapeTree, ShapeChains} {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return ShapeRandom, fmt.Errorf("ftdse: unknown graph shape %q (want one of %s)",
		name, strings.Join(ShapeNames(), ", "))
}

// WCETDistNames returns the canonical lower-case names accepted by
// ParseWCETDist, for flag usage strings.
func WCETDistNames() []string {
	out := make([]string, 0, 2)
	for _, d := range []WCETDist{DistUniform, DistExponential} {
		out = append(out, strings.ToLower(d.String()))
	}
	return out
}

// ParseWCETDist converts a distribution name ("uniform", "exponential")
// to its WCETDist; the inverse of WCETDist.String.
func ParseWCETDist(name string) (WCETDist, error) {
	for _, d := range []WCETDist{DistUniform, DistExponential} {
		if strings.EqualFold(name, d.String()) {
			return d, nil
		}
	}
	return DistUniform, fmt.Errorf("ftdse: unknown WCET distribution %q (want one of %s)",
		name, strings.Join(WCETDistNames(), ", "))
}
