package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The deadcode gate is one whole-module pass, not a unitchecker
// analyzer: vet facts flow only from a package to its importers, so no
// per-package analyzer can know that nobody uses a name. It parses and
// typechecks the non-test files of every package of the listed modules
// (the standard library comes from the compiler's export data through
// go/importer, not from GOROOT source), builds a graph from each
// package-level declaration to the declarations it names, and
// reports every func, method, type, var and const under the scope
// prefix that no live declaration reaches. A declaration is live when:
//
//   - a declaration outside the scope names it (cmd/, examples/, the
//     root facade, a second module such as perfbench/), or an init or
//     main function does;
//   - it is an exported method of a type the scope's parent package
//     aliases (the facade surface: callers reach it through the alias);
//   - it is a method that satisfies some interface and its receiver
//     type is live (interface calls name the interface's method, not
//     this one);
//   - it carries a //qosvet:keep <reason> directive in its doc comment;
//   - a live declaration names it (so a name that only dead code uses
//     is dead too).
//
// A keep with no reason is reported and not honoured; a keep on a name
// that would be live without it is reported as stale, so the keep set
// can only shrink.

// keepDirective marks a declaration the deadcode gate must keep although
// no non-test code uses it. The reason is mandatory.
const keepDirective = "//qosvet:keep"

// dcModule is one module to scan: its root directory and module path.
type dcModule struct{ dir, path string }

// dcPackage is one package's non-test files, typechecked.
type dcPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// dcLoader typechecks module packages from source on demand and defers
// every other import path to std.
type dcLoader struct {
	fset *token.FileSet
	dirs map[string]string // import path → directory
	pkgs map[string]*dcPackage
	std  types.Importer
}

func (l *dcLoader) Import(p string) (*types.Package, error) {
	if _, ok := l.dirs[p]; !ok {
		return l.std.Import(p)
	}
	dp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return dp.pkg, nil
}

func (l *dcLoader) load(p string) (*dcPackage, error) {
	if dp, ok := l.pkgs[p]; ok {
		if dp == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return dp, nil
	}
	l.pkgs[p] = nil
	dir := l.dirs[p]
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	dp := &dcPackage{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		dp.files = append(dp.files, f)
	}
	if dp.pkg, err = (&types.Config{Importer: l}).Check(p, l.fset, dp.files, dp.info); err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", p, err)
	}
	l.pkgs[p] = dp
	return dp, nil
}

// sourceFiles lists dir's non-test Go files that the default build
// context selects, sorted.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// loadModules typechecks every package of mods. A directory holding its
// own go.mod starts another module and is scanned only if listed;
// testdata and dot or underscore directories are skipped, as the go
// tool skips them.
func loadModules(fset *token.FileSet, std types.Importer, mods []dcModule) (map[string]*dcPackage, error) {
	l := &dcLoader{fset: fset, dirs: make(map[string]string), pkgs: make(map[string]*dcPackage), std: std}
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != m.dir {
				base := d.Name()
				if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			names, err := sourceFiles(dir)
			if err != nil || len(names) == 0 {
				return err
			}
			rel, err := filepath.Rel(m.dir, dir)
			if err != nil {
				return err
			}
			l.dirs[path.Join(m.path, filepath.ToSlash(rel))] = dir
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for p := range l.dirs {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l.pkgs, nil
}

// dcKeep is one parsed //qosvet:keep directive.
type dcKeep struct {
	pos    token.Pos
	reason string
}

// keepOf returns the keep directive in doc, if any.
func keepOf(doc *ast.CommentGroup) *dcKeep {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, keepDirective); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return &dcKeep{pos: c.Pos(), reason: strings.TrimSpace(rest)}
		}
	}
	return nil
}

// origin maps an instantiated func or method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// deadcode reports the unused declarations of pkgs whose package path
// starts with scope, and every malformed or stale keep directive.
func deadcode(pkgs map[string]*dcPackage, scope string) []Diagnostic {
	inScope := func(obj types.Object) bool {
		return obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), scope)
	}
	edges := make(map[types.Object][]types.Object) // declaration → what it names
	used := make(map[types.Object]bool)            // named by some declaration
	roots := make(map[types.Object]bool)
	keeps := make(map[types.Object]*dcKeep)
	var cands []types.Object // in-scope declarations, in source order
	var stray []*dcKeep      // keeps on declarations the gate does not judge

	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// name records that each owner names every package-level object or
	// method used inside node. A nil owner (init, main) or one outside
	// the scope makes what it names a root. Blank declarations have no
	// owner and are not walked: a compile-time assertion is not a use.
	name := func(info *types.Info, owners []types.Object, node ast.Node) {
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() && !isMethod(obj) {
				return true
			}
			obj = origin(obj)
			used[obj] = true
			for _, o := range owners {
				if o == nil || !inScope(o) {
					roots[obj] = true
				} else {
					edges[o] = append(edges[o], obj)
				}
			}
			return true
		})
	}
	declare := func(obj types.Object, doc *ast.CommentGroup) {
		k := keepOf(doc)
		if obj.Name() == "_" || !inScope(obj) {
			if k != nil {
				stray = append(stray, k)
			}
			return
		}
		cands = append(cands, obj)
		if k != nil {
			keeps[obj] = k
		}
	}

	for _, p := range paths {
		dp := pkgs[p]
		for _, f := range dp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := dp.info.Defs[d.Name]
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && dp.pkg.Name() == "main") {
						name(dp.info, []types.Object{nil}, d)
						continue
					}
					declare(obj, d.Doc)
					name(dp.info, []types.Object{obj}, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						doc := d.Doc
						if d.Lparen.IsValid() {
							doc = nil
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Doc != nil {
								doc = s.Doc
							}
							obj := dp.info.Defs[s.Name]
							declare(obj, doc)
							name(dp.info, []types.Object{obj}, s)
						case *ast.ValueSpec:
							if s.Doc != nil {
								doc = s.Doc
							}
							var owners []types.Object
							for _, id := range s.Names {
								if id.Name != "_" {
									obj := dp.info.Defs[id]
									declare(obj, doc)
									owners = append(owners, obj)
								}
							}
							if owners != nil {
								name(dp.info, owners, s)
							}
						}
					}
				}
			}
		}
	}

	// The facade: exported methods of every type the scope's parent
	// package aliases are reachable through the alias.
	if facade, ok := pkgs[strings.TrimSuffix(strings.TrimSuffix(scope, "/"), "/internal")]; ok {
		for _, n := range facade.pkg.Scope().Names() {
			tn, ok := facade.pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					roots[origin(m)] = true
				}
			}
		}
	}

	// Methods that satisfy an interface live as long as their type.
	// Generic types are checked at each instantiation the code writes.
	ifaces := interfacesByMethod(pkgs)
	satisfies := func(tn *types.TypeName, named *types.Named) {
		if types.IsInterface(named) {
			return
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			for _, iface := range ifaces[m.Name()] {
				if types.Implements(named, iface) || types.Implements(ptr, iface) {
					edges[tn] = append(edges[tn], origin(m))
					break
				}
			}
		}
	}
	for _, p := range paths {
		dp := pkgs[p]
		for _, n := range dp.pkg.Scope().Names() {
			tn, ok := dp.pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				satisfies(tn, named)
			}
		}
		for _, tv := range dp.info.Types {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.TypeArgs().Len() > 0 && pkgs[named.Obj().Pkg().Path()] != nil {
				satisfies(named.Origin().Obj(), named)
			}
		}
	}

	live := func(skip types.Object) map[types.Object]bool {
		seen := make(map[types.Object]bool)
		var stack []types.Object
		visit := func(o types.Object) {
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
		for o := range roots {
			visit(o)
		}
		for o, k := range keeps {
			if o != skip && k.reason != "" {
				visit(o)
			}
		}
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range edges[o] {
				visit(t)
			}
		}
		return seen
	}

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Analyzer: "deadcode", Pos: pos, Message: "deadcode: " + fmt.Sprintf(format, args...)})
	}
	all := live(nil)
	for _, obj := range cands {
		k := keeps[obj]
		switch {
		case k != nil && k.reason == "":
			report(obj.Pos(), "%s on %s needs a reason", keepDirective, describe(obj))
		case k != nil && live(obj)[obj]:
			report(obj.Pos(), "stale %s: %s is used", keepDirective, describe(obj))
		}
		if all[obj] {
			continue
		}
		if used[obj] {
			report(obj.Pos(), "%s is used only by unused code", describe(obj))
		} else {
			report(obj.Pos(), "%s is unused", describe(obj))
		}
	}
	for _, k := range stray {
		report(k.pos, "stale %s: the gate judges only package-level names under %s", keepDirective, scope)
	}
	return diags
}

func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// describe names obj as the diagnostics print it: kind and qualified
// name, methods with their receiver.
func describe(obj types.Object) string {
	q := obj.Pkg().Name() + "."
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			star := ""
			if p, ok := rt.(*types.Pointer); ok {
				rt, star = p.Elem(), "*"
			}
			return fmt.Sprintf("method %s(%s%s).%s", q, star, rt.(*types.Named).Obj().Name(), o.Name())
		}
		return "func " + q + o.Name()
	case *types.TypeName:
		return "type " + q + o.Name()
	case *types.Const:
		return "const " + q + o.Name()
	default:
		return "var " + q + o.Name()
	}
}

// interfacesByMethod indexes every interface with methods that the
// loaded packages can see — those declared in any package they import,
// directly or not, every interface type they write, and error — by
// each of its method names.
func interfacesByMethod(pkgs map[string]*dcPackage) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	seenIface := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[iface] {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seenIface[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			byName[m] = append(byName[m], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	// The errors package asserts these anonymous interfaces inside
	// function bodies, which no importer exposes.
	errType := types.Universe.Lookup("error").Type()
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	for _, m := range []struct {
		name            string
		params, results *types.Tuple
	}{
		{"Unwrap", nil, tuple(errType)},
		{"Unwrap", nil, tuple(types.NewSlice(errType))},
		{"Is", tuple(errType), tuple(types.Typ[types.Bool])},
		{"As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])},
	} {
		sig := types.NewSignatureType(nil, nil, nil, m.params, m.results, false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	seenPkg := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, dp := range pkgs {
		walk(dp.pkg)
		for _, tv := range dp.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// TestDeadcode is the deadcode gate: no package-level declaration under
// internal/ may go unused by non-test code. The scan counts uses from
// every package of this module and of the perfbench module.
func TestDeadcode(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, importer.ForCompiler(fset, "gc", nil), []dcModule{
		{root, "qosalloc"},
		{filepath.Join(root, "perfbench"), "qosalloc/perfbench"},
	})
	if err != nil {
		t.Fatal(err)
	}
	diags := deadcode(pkgs, "qosalloc/internal/")
	sortDiagnostics(fset, diags)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: %s", pos, d.Message)
	}
}

// TestDeadcodeFixture runs the gate over the deadmod fixture module and
// its second module, deadmod/second, against the fixture's // want
// annotations.
func TestDeadcodeFixture(t *testing.T) {
	root := filepath.Join("testdata", "src", "deadmod")
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, newFixtureLoader(), []dcModule{
		{root, "deadmod"},
		{filepath.Join(root, "second"), "deadmod/second"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, dp := range pkgs {
		files = append(files, dp.files...)
	}
	checkWants(t, fset, files, deadcode(pkgs, "deadmod/internal/"))
}
