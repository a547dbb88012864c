package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ObsLint guards the observability conventions DESIGN.md §7 promises:
// metric names are constant and Prometheus-shaped (qos_ prefix,
// snake_case) so the exposition is stable across runs; histogram
// bucket sets are shared package-level variables so series of one
// metric are mergeable; and instrumented hot paths never branch on
// "is observability on" — the nil-registry dangling-bundle pattern
// makes a nil *obs.Registry a valid no-op target.
var ObsLint = &Analyzer{
	Name: "obslint",
	Doc: "metric names must be constant qos_[a-z0-9_]+ series, histogram buckets " +
		"package-level, and hot paths must not branch on a nil *obs.Registry",
	Run: runObsLint,
}

// metricBaseRE is the legal shape of a metric base name (the part
// before any {label="v"} suffix).
var metricBaseRE = regexp.MustCompile(`^qos_[a-z0-9_]*[a-z0-9]$`)

// registryFactories maps the Registry get-or-create and attach methods,
// and obs.NewHistogram, to the index of their name argument and of their
// bucket argument (-1 when the call has none that needs checking).
var registryFactories = map[string]struct{ name, buckets int }{
	"Attach":                 {0, -1},
	"AttachHistogram":        {0, -1},
	"AttachHistogramCounter": {0, 2},
	"Counter":                {0, -1},
	"Gauge":                  {0, -1},
	"Histogram":              {0, 2},
	"NewHistogram":           {-1, 0},
	"Ring":                   {0, -1},
}

func runObsLint(pass *Pass) {
	if pass.Pkg.Name() == "obs" {
		return // the substrate itself implements the nil-receiver pattern
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obsLintFactory(pass, n)
			case *ast.IfStmt:
				obsLintNilGuard(pass, n.Cond)
			}
			return true
		})
	}
}

// obsLintFactory checks one Registry.Counter/Gauge/Histogram/Ring/Attach/
// AttachHistogram/AttachHistogramCounter or obs.NewHistogram call.
func obsLintFactory(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil && !namedFrom(recv.Type(), "obs", "Registry") ||
		recv == nil && !isPkg(fn.Pkg(), "obs") {
		return
	}
	args, isFactory := registryFactories[fn.Name()]
	if !isFactory {
		return
	}

	if args.name >= 0 && args.name < len(call.Args) {
		checkMetricName(pass, call.Args[args.name])
	}

	if args.buckets >= 0 && args.buckets < len(call.Args) {
		if v := packageLevelVar(pass.TypesInfo, call.Args[args.buckets]); v == nil {
			pass.Reportf(call.Args[args.buckets].Pos(),
				"histogram buckets must be a shared package-level bucket set (e.g. obs.LatencyBucketsMicros), not built at the call site")
		}
	}
}

// checkMetricName validates the name argument: either a constant
// string, or a fmt.Sprintf whose constant format carries the base name
// (the labeled-series idiom). Anything else is unauditable.
func checkMetricName(pass *Pass, arg ast.Expr) {
	if s, ok := constString(pass.TypesInfo, arg); ok {
		if !metricBaseRE.MatchString(metricBase(s)) {
			pass.Reportf(arg.Pos(),
				"metric name %q does not match qos_[a-z0-9_]+ (optionally with a {label=...} suffix)", s)
		}
		return
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if fn := pkgFunc(pass.TypesInfo, call); fn != nil && isPkg(fn.Pkg(), "fmt") && fn.Name() == "Sprintf" && len(call.Args) > 0 {
			if format, ok := constString(pass.TypesInfo, call.Args[0]); ok {
				if !metricBaseRE.MatchString(metricBase(format)) {
					pass.Reportf(call.Args[0].Pos(),
						"metric series format %q does not start with a qos_[a-z0-9_]+ base name", format)
				}
				return
			}
		}
	}
	pass.Reportf(arg.Pos(),
		"metric name must be a constant string or a constant-format fmt.Sprintf series so the exposition is auditable")
}

// metricBase cuts a series name or Sprintf format down to the base
// metric name: everything before a {label...} suffix or a format verb.
func metricBase(s string) string {
	if i := strings.IndexByte(s, '{'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, '%'); i >= 0 {
		s = s[:i]
	}
	return s
}

// obsLintNilGuard flags if-conditions that compare a *obs.Registry
// against nil. The dangling-bundle pattern exists precisely so
// instrumented code paths never carry that branch: a nil registry
// hands out usable no-op metrics. (Storing reg != nil in a struct
// field at construction, as the metrics bundles do for trace
// formatting, is not an if-branch and stays legal.)
func obsLintNilGuard(pass *Pass, cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if bin.Op != token.EQL && bin.Op != token.NEQ {
			return true
		}
		for _, pair := range [][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
			if !isNilIdent(pass, pair[1]) {
				continue
			}
			t := typeOf(pass.TypesInfo, pair[0])
			if t != nil && namedFrom(t, "obs", "Registry") {
				pass.Reportf(bin.Pos(),
					"branching on a nil *obs.Registry; a nil registry is a valid no-op target (dangling-bundle pattern) — drop the guard")
			}
		}
		return true
	})
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}
