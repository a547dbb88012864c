package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture harness is a dependency-free analogue of
// golang.org/x/tools/go/analysis/analysistest: fixture packages live
// under testdata/src/<importpath>, import only each other (including
// tiny stand-ins for time, math/rand, fmt, errors, sort), and annotate
// expected findings with trailing comments of the form
//
//	// want `regexp` `regexp`
//
// one regexp per expected diagnostic on that line. Because every
// import resolves inside testdata/src, the tests need no export data,
// no GOPATH and no network.

// fixtureLoader typechecks fixture packages from source, resolving
// imports under root. When facts is non-nil, every dependency load
// also runs the fact-bearing analyzers so the package under test sees
// its dependencies' facts — the in-process analogue of the vetx
// threading the unitchecker does under go vet.
type fixtureLoader struct {
	root  string
	fset  *token.FileSet
	pkgs  map[string]*types.Package
	facts *FactSet
}

func newFixtureLoader() *fixtureLoader {
	return &fixtureLoader{
		root:  filepath.Join("testdata", "src"),
		fset:  token.NewFileSet(),
		pkgs:  make(map[string]*types.Package),
		facts: NewFactSet(),
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, _, _, err := l.load(path, nil)
	return pkg, err
}

// factful returns the analyzers that export or import facts.
func factful(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// load parses and typechecks one fixture package. When info is
// non-nil it receives the package's type information (the package
// under test); dependency loads pass nil and contribute facts only.
func (l *fixtureLoader) load(path string, info *types.Info) (*types.Package, []*ast.File, *token.FileSet, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fixture import %q is not stubbed under testdata/src: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	dep := info == nil
	if dep {
		info = newInfo()
	}
	cfg := &types.Config{Importer: l}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("typechecking fixture %q: %w", path, err)
	}
	l.pkgs[path] = pkg
	if dep && l.facts != nil {
		analyzePackage(l.fset, files, pkg, info, factful(All()), l.facts, false)
	}
	return pkg, files, l.fset, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// wantRE matches the expectation syntax: the word want followed by one
// or more backquoted regexps.
var wantRE = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")

var wantArgRE = regexp.MustCompile("`([^`]*)`")

// expectations returns the want regexps of every annotated line.
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) map[fileLine][]*regexp.Regexp {
	t.Helper()
	wants := make(map[fileLine][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, arg[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// runFixture analyzes one fixture package with the given analyzers and
// checks its findings against the // want annotations, both ways:
// every finding must be expected, every expectation must be found.
func runFixture(t *testing.T, pkgPath string, analyzers ...*Analyzer) {
	t.Helper()
	loader := newFixtureLoader()
	info := newInfo()
	pkg, files, fset, err := loader.load(pkgPath, info)
	if err != nil {
		t.Fatal(err)
	}

	checkWants(t, fset, files, Keep(analyzePackage(fset, files, pkg, info, analyzers, loader.facts, false)))
}

// checkWants matches diags against the // want annotations of files,
// both ways: every finding must be expected, every expectation found.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	wants := expectations(t, fset, files)

	matched := make(map[fileLine][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fileLine{pos.Filename, pos.Line}
		found := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []fileLine
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for i, re := range wants[key] {
			if !matched[key][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, re)
			}
		}
	}
}

func TestDetLintFixture(t *testing.T) { runFixture(t, "rtsys", DetLint) }

func TestQ15LintFixture(t *testing.T) { runFixture(t, "q15sites", Q15Lint) }

func TestObsLintFixture(t *testing.T) { runFixture(t, "obssites", ObsLint) }

func TestErrLintFixture(t *testing.T) { runFixture(t, "errsites", ErrLint) }

func TestLockLintFixture(t *testing.T) { runFixture(t, "locksites", LockLint) }

// TestLockLintCrossPackageFacts proves the interprocedural half: the
// inversion in lockfacts/use is only findable through the LockOrder
// and LockSet facts exported while loading lockfacts/core.
func TestLockLintCrossPackageFacts(t *testing.T) { runFixture(t, "lockfacts/use", LockLint) }

func TestLeakLintFixture(t *testing.T) { runFixture(t, "leaksites", LeakLint) }

// TestFullSuiteOnFixtures runs all six analyzers together over every
// fixture package: analyzers must not fire outside their own fixture
// (each package's want annotations already name their analyzer).
func TestFullSuiteOnFixtures(t *testing.T) {
	for _, pkg := range []string{"rtsys", "q15sites", "obssites", "errsites", "locksites", "lockfacts/use", "leaksites"} {
		t.Run(pkg, func(t *testing.T) { runFixture(t, pkg, All()...) })
	}
}

// TestStubsAreClean keeps the fixture stand-in packages diagnostic-free
// so fixture expectations stay attributable to fixture code.
func TestStubsAreClean(t *testing.T) {
	for _, pkg := range []string{"time", "math/rand", "fmt", "errors", "sort", "fixed", "obs", "sync", "context", "lockfacts/core"} {
		t.Run(pkg, func(t *testing.T) { runFixture(t, pkg, All()...) })
	}
}

// TestSuppressionRequiresReason pins the malformed-directive
// diagnostic: an ignore without a reason is reported, not honored.
// (The rtsys fixture carries the in-source variant; this covers the
// parser directly.)
func TestSuppressionRequiresReason(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\n//qosvet:ignore detlint\nvar X = 1\n"
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup, bad := collectSuppressions(fset, []*ast.File{f})
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed suppression") {
		t.Fatalf("want one malformed-suppression diagnostic, got %v", bad)
	}
	if suppressed(fset, sup, Diagnostic{Analyzer: "detlint", Pos: f.Pos()}) {
		t.Fatal("malformed suppression must not silence diagnostics")
	}
}

// TestLoaderIsHermetic guards the fixture importer contract: loading
// never falls back to the real standard library, so the stand-in
// packages are guaranteed to be the ones exercised.
func TestLoaderIsHermetic(t *testing.T) {
	if _, err := newFixtureLoader().Import("no/such/fixture"); err == nil {
		t.Fatal("expected an error importing an unstubbed path")
	}
}

// ImportPackageFact copies pkg's fact of this analyzer's type into f
// and reports whether one was found. Analyzers read package facts
// through AllPackageFacts; the round-trip test looks one up directly.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	if pkg == nil || p.facts == nil {
		return false
	}
	stored, ok := p.facts.pkg[pkg][p.Analyzer.Name]
	if !ok {
		return false
	}
	return copyFact(stored, f)
}

// TestFactsRoundTrip pins the vetx serialization contract: facts
// exported while analyzing lockfacts/core survive EncodeFacts →
// DecodeFacts into a fresh store, resolve back to the same objects,
// and re-encode byte-identically (cmd/go content-hashes vetx files).
func TestFactsRoundTrip(t *testing.T) {
	loader := newFixtureLoader()
	info := newInfo()
	pkg, files, fset, err := loader.load("lockfacts/core", info)
	if err != nil {
		t.Fatal(err)
	}
	facts := NewFactSet()
	analyzePackage(fset, files, pkg, info, factful(All()), facts, false)

	data, err := EncodeFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("LockSet")) || !bytes.Contains(data, []byte("LockOrder")) {
		t.Fatalf("encoded payload is missing fact types:\n%s", data)
	}

	fresh := NewFactSet()
	if err := DecodeFacts(fresh, data, map[string]*types.Package{"lockfacts/core": pkg}, All()); err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: LockLint, Pkg: pkg, facts: fresh}

	var ls LockSet
	if !pass.ImportObjectFact(pkg.Scope().Lookup("WithCommit"), &ls) {
		t.Fatal("no LockSet fact for WithCommit after round-trip")
	}
	if want := []string{"core.Guard.CommitMu"}; !reflect.DeepEqual(ls.Acquires, want) {
		t.Fatalf("WithCommit LockSet = %v, want %v", ls.Acquires, want)
	}
	if !pass.ImportObjectFact(pkg.Scope().Lookup("LockAlloc"), &ls) {
		t.Fatal("no LockSet fact for LockAlloc after round-trip")
	}
	if want := []string{"core.Guard.AllocMu"}; !reflect.DeepEqual(ls.Acquires, want) {
		t.Fatalf("LockAlloc LockSet = %v, want %v", ls.Acquires, want)
	}

	var lo LockOrder
	if !pass.ImportPackageFact(pkg, &lo) {
		t.Fatal("no LockOrder package fact after round-trip")
	}
	if want := [][]string{{"CommitMu", "AllocMu"}}; !reflect.DeepEqual(lo.Chains, want) {
		t.Fatalf("LockOrder chains = %v, want %v", lo.Chains, want)
	}

	again, err := EncodeFacts(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding decoded facts is not byte-identical:\n%s\nvs\n%s", data, again)
	}
}

// TestAuditReportsStaleSuppressions pins the audit contract: a
// well-formed directive that silences nothing is itself a finding, but
// only when the audit is on (full-suite runs).
func TestAuditReportsStaleSuppressions(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

//qosvet:ignore detlint nothing on the next line triggers detlint
var X = 1
`
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}

	audited := analyzePackage(fset, []*ast.File{f}, pkg, info, All(), NewFactSet(), true)
	if len(audited) != 1 || !strings.Contains(audited[0].Message, "stale suppression") {
		t.Fatalf("audit run: want exactly one stale-suppression diagnostic, got %v", audited)
	}
	if quiet := analyzePackage(fset, []*ast.File{f}, pkg, info, All(), NewFactSet(), false); len(quiet) != 0 {
		t.Fatalf("non-audit run must not report stale suppressions, got %v", quiet)
	}
}

// TestDiagnosticsSortedByPosition pins the merged-output order: by
// (file, line, column, analyzer), never analyzer registration order.
func TestDiagnosticsSortedByPosition(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "z.go", "package p\n\nvar A = 1\nvar B = 2\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	line3, line4 := f.Decls[0].Pos(), f.Decls[1].Pos()
	diags := []Diagnostic{
		{Analyzer: "zlint", Pos: line4, Message: "z"},
		{Analyzer: "alint", Pos: line4, Message: "a"},
		{Analyzer: "zlint", Pos: line3, Message: "z"},
	}
	sortDiagnostics(fset, diags)
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = fmt.Sprintf("%d/%s", fset.Position(d.Pos).Line, d.Analyzer)
	}
	if want := []string{"3/zlint", "4/alint", "4/zlint"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted order = %v, want %v", got, want)
	}
}

// TestEmitJSONSchema pins the -json wire shape documented in doc.go:
// a flat array of {analyzer, posn, message, suppressed}, suppressed
// findings included in JSON but never gating text mode.
func TestEmitJSONSchema(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "j.go", "package p\n\nvar A = 1\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	u := &unitDiagnostics{cfg: &vetConfig{ID: "p"}, fset: fset, diags: []Diagnostic{
		{Analyzer: "locklint", Pos: f.Decls[0].Pos(), Message: "locklint: boom"},
		{Analyzer: "leaklint", Pos: f.Decls[0].Pos(), Message: "leaklint: hushed", Suppressed: true},
	}}

	var buf bytes.Buffer
	if code := emit(&buf, io.Discard, u, true); code != 0 {
		t.Fatalf("JSON mode exit code = %d, want 0", code)
	}
	var got []jsonDiagnostic
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not the documented schema: %v\n%s", err, buf.Bytes())
	}
	if len(got) != 2 || got[0].Analyzer != "locklint" || got[0].Suppressed ||
		got[1].Analyzer != "leaklint" || !got[1].Suppressed {
		t.Fatalf("unexpected JSON diagnostics: %+v", got)
	}
	if !strings.HasPrefix(got[0].Posn, "j.go:3") {
		t.Fatalf("posn = %q, want j.go:3:...", got[0].Posn)
	}

	if code := emit(io.Discard, io.Discard, u, false); code != 2 {
		t.Fatalf("text mode with a live finding: exit code = %d, want 2", code)
	}
	suppressedOnly := &unitDiagnostics{cfg: u.cfg, fset: fset, diags: u.diags[1:]}
	if code := emit(io.Discard, io.Discard, suppressedOnly, false); code != 0 {
		t.Fatalf("text mode with only suppressed findings: exit code = %d, want 0", code)
	}
}
