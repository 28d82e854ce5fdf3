// Package metrics enforces the observability naming and cardinality
// contract at obs.Registry registration sites:
//
//   - Metric names are compile-time constants: dashboards, alerts, the
//     CI exposition checks and the perfbench counter reads grep for
//     them, so a name computed at runtime is unfindable. They carry the ftdse_ (node tier) or ftcluster_
//     (coordinator tier) prefix, counters end in _total, histograms end
//     in a unit suffix (_seconds, _ms, _bytes, _ratio), and gauges do
//     not masquerade as counters with a _total suffix.
//
//   - Label values stay bounded: label names such as trace_id or
//     fingerprint are one-value-per-event and explode the registry
//     (obs.Registry keeps every child alive forever), and values fed to
//     CounterVec.With must not derive from trace IDs or problem
//     fingerprints.
//
//   - Literal histogram bucket slices are strictly increasing, and
//     obs.ExponentialBuckets arguments describe a real geometric series
//     (start > 0, factor > 1, n ≥ 1).
package metrics

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"repro/ftdse/tools/ftlint/analysis"
	"repro/ftdse/tools/ftlint/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "metrics",
	Doc:  "obs.Registry registrations follow the naming and cardinality contract\n\nConst ftdse_/ftcluster_ names with unit suffixes, bounded label values (no trace IDs or fingerprints), monotone histogram buckets.",
	Run:  run,
}

const registryType = "repro/ftdse/obs.Registry"
const counterVecType = "repro/ftdse/obs.CounterVec"

var nameRx = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var unitSuffixes = []string{"_seconds", "_ms", "_bytes", "_ratio"}

// unboundedLabels are label names whose value space grows with traffic.
var unboundedLabels = map[string]string{
	"fingerprint": "problem fingerprints are unique per problem",
	"trace_id":    "trace IDs are unique per request",
	"traceid":     "trace IDs are unique per request",
	"span_id":     "span IDs are unique per span",
	"job_id":      "job IDs are unique per job",
	"jobid":       "job IDs are unique per job",
	"id":          "ids are unbounded",
	"url":         "URLs are unbounded",
	"path":        "paths are unbounded",
	"error":       "error strings are unbounded",
	"err":         "error strings are unbounded",
}

// taintedSelectors are field/method names whose values must not become
// label values.
var taintedSelectors = map[string]bool{
	"TraceID":     true,
	"SpanID":      true,
	"Fingerprint": true,
	"JobID":       true,
}

// taintedCalls are functions whose results must not become label
// values.
var taintedCalls = map[string]bool{
	"Fingerprint": true,
	"NewTraceID":  true,
}

func run(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if method, ok := registryMethod(info, call); ok {
				checkRegistration(pass, call, method)
			}
			checkBucketCall(pass, call)
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkWithTaint(pass, fd)
			}
		}
	}
	return nil, nil
}

// registryMethod reports whether call is a registration method on
// *obs.Registry and returns the method name.
func registryMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "New") {
		return "", false
	}
	if typeName(info.Types[sel.X].Type) != registryType {
		return "", false
	}
	return sel.Sel.Name, true
}

func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.String()
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, method string) {
	if len(call.Args) == 0 {
		return
	}
	nameArg := call.Args[0]
	name, isConst := constStringOf(pass.TypesInfo, nameArg)
	if !isConst {
		pass.Reportf(nameArg.Pos(), "metric name passed to %s must be a compile-time constant so dashboards and alerts can reference it", method)
	} else {
		checkMetricName(pass, nameArg, method, name)
	}

	switch method {
	case "NewCounterVec":
		if len(call.Args) >= 3 {
			checkLabelName(pass, call.Args[2])
		}
	case "NewHistogram":
		if len(call.Args) >= 3 {
			checkLiteralBuckets(pass, call.Args[2])
		}
	}
}

func checkMetricName(pass *analysis.Pass, arg ast.Expr, method, name string) {
	if !nameRx.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q is not a valid prometheus name (want %s)", name, nameRx)
		return
	}
	if !strings.HasPrefix(name, "ftdse_") && !strings.HasPrefix(name, "ftcluster_") {
		pass.Reportf(arg.Pos(), "metric name %q lacks the ftdse_ or ftcluster_ namespace prefix", name)
	}
	switch method {
	case "NewCounter", "NewCounterVec", "NewCounterFunc":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "counter %q must end in _total", name)
		}
	case "NewGauge", "NewGaugeFunc":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "gauge %q must not end in _total (that suffix is the counter convention)", name)
		}
	case "NewHistogram":
		hasUnit := false
		for _, suffix := range unitSuffixes {
			if strings.HasSuffix(name, suffix) {
				hasUnit = true
				break
			}
		}
		if !hasUnit {
			pass.Reportf(arg.Pos(), "histogram %q must end in a unit suffix (%s)", name, strings.Join(unitSuffixes, ", "))
		}
	}
}

func checkLabelName(pass *analysis.Pass, arg ast.Expr) {
	label, isConst := constStringOf(pass.TypesInfo, arg)
	if !isConst {
		pass.Reportf(arg.Pos(), "label name must be a compile-time constant")
		return
	}
	if why, bad := unboundedLabels[label]; bad {
		pass.Reportf(arg.Pos(), "label %q has unbounded cardinality (%s); the registry keeps every child alive forever", label, why)
	}
}

// checkLiteralBuckets verifies strict monotonicity when the bucket
// bounds are written out as a literal with constant elements. Computed
// slices are obs.ValidateExposition's problem at runtime.
func checkLiteralBuckets(pass *analysis.Pass, arg ast.Expr) {
	lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok {
		return
	}
	prev := 0.0
	havePrev := false
	for _, elt := range lit.Elts {
		tv := pass.TypesInfo.Types[elt]
		if tv.Value == nil {
			return // a computed element: not this pass's call
		}
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		if havePrev && v <= prev {
			pass.Reportf(elt.Pos(), "histogram buckets must be strictly increasing: %v follows %v", v, prev)
			return
		}
		prev, havePrev = v, true
	}
}

// checkBucketCall validates constant obs.ExponentialBuckets arguments.
func checkBucketCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := dataflow.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "ExponentialBuckets" || fn.Pkg() == nil || fn.Pkg().Path() != "repro/ftdse/obs" {
		return
	}
	if len(call.Args) != 3 {
		return
	}
	info := pass.TypesInfo
	if v, ok := constFloatOf(info, call.Args[0]); ok && v <= 0 {
		pass.Reportf(call.Args[0].Pos(), "ExponentialBuckets start must be > 0 (log-scale buckets cannot start at %v)", v)
	}
	if v, ok := constFloatOf(info, call.Args[1]); ok && v <= 1 {
		pass.Reportf(call.Args[1].Pos(), "ExponentialBuckets factor must be > 1 to produce increasing bounds, got %v", v)
	}
	if v, ok := constFloatOf(info, call.Args[2]); ok && v < 1 {
		pass.Reportf(call.Args[2].Pos(), "ExponentialBuckets needs at least one bucket, got %v", v)
	}
}

// checkWithTaint flags CounterVec.With arguments derived from
// per-request identity (trace IDs, fingerprints) anywhere in fd.
func checkWithTaint(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	isTainted := dataflow.Taint(info, fd, func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return taintedSelectors[e.Sel.Name]
		case *ast.CallExpr:
			if fn := dataflow.Callee(info, e); fn != nil {
				return taintedCalls[fn.Name()]
			}
		}
		return false
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "With" || typeName(info.Types[sel.X].Type) != counterVecType {
			return true
		}
		for _, arg := range call.Args {
			if isTainted(arg) {
				pass.Reportf(arg.Pos(), "label value derives from a per-request identity (trace ID or fingerprint): unbounded cardinality in the registry")
			}
		}
		return true
	})
}

// constStringOf returns the compile-time string value of e, if any.
func constStringOf(info *types.Info, e ast.Expr) (string, bool) {
	tv := info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constFloatOf returns the compile-time numeric value of e, if any.
func constFloatOf(info *types.Info, e ast.Expr) (float64, bool) {
	tv := info.Types[e]
	if tv.Value == nil {
		return 0, false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}
