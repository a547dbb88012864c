package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the checks could migrate to the
// upstream framework wholesale; the framework itself is reimplemented
// here on the standard library because the module is dependency-free.
type Analyzer struct {
	// Name is the analyzer's identifier: the diagnostic prefix, the
	// //qosvet:ignore key and the enable-flag name on cmd/qosvet.
	Name string
	// Doc is a one-paragraph description of the invariant guarded.
	Doc string
	// Run inspects one package and reports findings on pass.
	Run func(*Pass)
	// FactTypes declares the concrete fact types this analyzer exports
	// and imports (see facts.go). An analyzer with fact types also runs
	// on dependency-only units so its facts flow downstream.
	FactTypes []Fact
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts *FactSet
	diags *[]Diagnostic
}

// Diagnostic is one finding, attributed to the analyzer that raised it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
	// Suppressed marks a finding covered by a //qosvet:ignore
	// directive: excluded from text output and the exit code, but kept
	// for -json consumers and the stale-suppression audit.
	Suppressed bool
}

// Reportf records a finding at pos. The analyzer name is prefixed onto
// the message so a vet line reads "file:line: detlint: ...".
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  p.Analyzer.Name + ": " + fmt.Sprintf(format, args...),
	})
}

// All returns the full qosvet suite in registration order. Output
// order is positional, not registrational: analyzePackage sorts merged
// diagnostics by (file, line, column, analyzer).
func All() []*Analyzer {
	return []*Analyzer{DetLint, Q15Lint, ObsLint, ErrLint, LockLint, LeakLint}
}

// IgnoreDirective is the comment prefix of an in-source suppression:
//
//	//qosvet:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it.
const IgnoreDirective = "//qosvet:ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	analyzer string // analyzer name or "all"
	ok       bool   // well-formed: has analyzer and a non-empty reason
	pos      token.Pos
	used     bool // matched at least one diagnostic (audit mode)
}

// fileLine keys a suppression or diagnostic to a source line.
type fileLine struct {
	file string
	line int
}

// collectSuppressions parses every //qosvet:ignore directive in files.
// Malformed directives (missing analyzer or reason) are returned
// separately so the driver can report them: a silent bad suppression
// would look like an active one.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (map[fileLine][]*suppression, []Diagnostic) {
	sup := make(map[fileLine][]*suppression)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnoreDirective)
				fields := strings.Fields(rest)
				s := &suppression{pos: c.Pos()}
				if len(fields) >= 2 { // analyzer + at least one reason word
					s.analyzer = fields[0]
					s.ok = true
				} else {
					bad = append(bad, Diagnostic{
						Analyzer: "qosvet",
						Pos:      c.Pos(),
						Message:  "qosvet: malformed suppression: want //qosvet:ignore <analyzer> <reason>",
					})
				}
				p := fset.Position(c.Pos())
				k := fileLine{p.Filename, p.Line}
				sup[k] = append(sup[k], s)
			}
		}
	}
	return sup, bad
}

// suppressed reports whether a diagnostic from analyzer at pos is
// covered by a well-formed ignore directive on the same line or the
// line immediately above, marking the directive used for the audit.
func suppressed(fset *token.FileSet, sup map[fileLine][]*suppression, d Diagnostic) bool {
	p := fset.Position(d.Pos)
	hit := false
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, s := range sup[fileLine{p.Filename, line}] {
			if s.ok && (s.analyzer == d.Analyzer || s.analyzer == "all") {
				s.used = true
				hit = true
			}
		}
	}
	return hit
}

// Keep filters a full diagnostic list down to the findings that gate:
// everything not covered by a suppression.
func Keep(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// analyzePackage runs analyzers over one type-checked package with the
// given fact store and returns every diagnostic — suppressed findings
// marked, not dropped — sorted by (file, line, column, analyzer,
// message) so merged multi-analyzer output is stable and diffable
// regardless of analyzer registration order.
//
// Test files (*_test.go) are excluded: the invariants gate production
// code, and go vet hands the tool test-augmented package variants
// whose prod files it has already analyzed.
//
// With audit set, every well-formed suppression that matched no
// finding is itself reported: the suppression set can only shrink.
// Audit requires the full suite — under a subset a directive for an
// unselected analyzer would look stale.
func analyzePackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactSet, audit bool) []Diagnostic {
	var prod []*ast.File
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		prod = append(prod, f)
	}
	if len(prod) == 0 {
		return nil
	}

	sup, bad := collectSuppressions(fset, prod)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     prod,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
			diags:     &diags,
		}
		a.Run(pass)
	}

	all := bad
	for _, d := range diags {
		d.Suppressed = suppressed(fset, sup, d)
		all = append(all, d)
	}
	if audit {
		var lines []fileLine
		for k := range sup {
			lines = append(lines, k)
		}
		sort.Slice(lines, func(i, j int) bool {
			if lines[i].file != lines[j].file {
				return lines[i].file < lines[j].file
			}
			return lines[i].line < lines[j].line
		})
		for _, k := range lines {
			for _, s := range sup[k] {
				if s.ok && !s.used {
					all = append(all, Diagnostic{
						Analyzer: "qosvet",
						Pos:      s.pos,
						Message: fmt.Sprintf(
							"qosvet: stale suppression: no %s finding left on this line; delete the //qosvet:ignore directive",
							s.analyzer),
					})
				}
			}
		}
	}
	sortDiagnostics(fset, all)
	return all
}

// sortDiagnostics orders findings by (file, line, column, analyzer,
// message) — the merged-output contract S6 pins: vet output must not
// depend on which analyzer happened to be registered first.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// ---- shared type-inspection helpers ----

// pkgFunc resolves a call to a package-level function and returns it
// with its package, or nil if the callee is not a plain package
// function (methods, builtins, conversions, locals all return nil).
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// isPkg reports whether p is the package with the given import path.
// Matching tolerates the module prefix (qosalloc/internal/fixed matches
// "internal/fixed") so fixtures can stub project packages under short
// paths while the real tree matches too.
func isPkg(p *types.Package, path string) bool {
	if p == nil {
		return false
	}
	return p.Path() == path || strings.HasSuffix(p.Path(), "/"+path)
}

// namedFrom reports whether t (or the pointee/alias it resolves to) is
// the named type pkgName.typeName, where pkgName is the package's
// declared name — stable across the real module path and fixture stubs.
func namedFrom(t types.Type, pkgName string, typeNames ...string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != pkgName {
		return false
	}
	for _, name := range typeNames {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// typeOf is info.Types[e].Type with a nil guard.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// implementsError reports whether t satisfies the builtin error
// interface (the type of a sentinel or a wrapped error value).
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errType)
}

// packageLevelVar resolves e to a package-level *types.Var, or nil.
func packageLevelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// constString returns the compile-time string value of e, if any.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
