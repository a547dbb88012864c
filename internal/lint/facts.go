package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// This file is the cross-package facts layer: the piece that turns the
// suite from a per-package checker into an interprocedural framework.
// An analyzer attaches serializable facts to functions and packages it
// analyzes; when a downstream package is analyzed, the facts of its
// dependencies are imported and the analyzer reasons across the call
// graph without re-reading dependency sources. The design mirrors
// golang.org/x/tools/go/analysis facts, reimplemented on the standard
// library:
//
//   - a Fact is a pointer to a JSON-serializable struct with an AFact
//     marker method, owned by exactly one analyzer (declared in its
//     FactTypes),
//   - object facts are keyed by types.Object and serialized under a
//     stable object path ("FuncName" or "Type.Method"), so they survive
//     the trip through a vetx file and re-resolve against the imported
//     package's type information,
//   - package facts are keyed by the package path alone.
//
// In-process (the fixture harness) the FactSet is shared directly; in
// the vet protocol it round-trips through the per-package .vetx files
// cmd/go threads between units (see unitchecker.go).

// Fact is a datum an analyzer exports for a types.Object or a package.
// Concrete fact types must be pointers to JSON-serializable structs and
// must be listed in their analyzer's FactTypes so the decoder can
// rebuild them from a vetx file.
type Fact interface{ AFact() }

// PackageFact pairs an imported package fact with its source package.
type PackageFact struct {
	Pkg  *types.Package
	Fact Fact
}

// FactSet accumulates the facts visible to one analysis unit: facts
// decoded from dependency vetx files plus facts exported by the
// analyzers running on the unit itself.
type FactSet struct {
	obj map[types.Object]map[string]Fact   // object → analyzer → fact
	pkg map[*types.Package]map[string]Fact // package → analyzer → fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{
		obj: make(map[types.Object]map[string]Fact),
		pkg: make(map[*types.Package]map[string]Fact),
	}
}

func (fs *FactSet) setObj(obj types.Object, analyzer string, f Fact) {
	m := fs.obj[obj]
	if m == nil {
		m = make(map[string]Fact)
		fs.obj[obj] = m
	}
	m[analyzer] = f
}

func (fs *FactSet) setPkg(pkg *types.Package, analyzer string, f Fact) {
	m := fs.pkg[pkg]
	if m == nil {
		m = make(map[string]Fact)
		fs.pkg[pkg] = m
	}
	m[analyzer] = f
}

// --- Pass-facing fact API ----------------------------------------------

// ExportObjectFact attaches f to obj for this analyzer. obj must belong
// to the package under analysis — facts about imported objects belong
// to the unit that analyzed their package.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || p.facts == nil {
		return
	}
	p.facts.setObj(obj, p.Analyzer.Name, f)
}

// ImportObjectFact copies the fact of this analyzer's type stored for
// obj into f (a pointer to the concrete fact struct) and reports
// whether one was found. Facts exported earlier in this unit and facts
// decoded from dependency vetx files are both visible.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || p.facts == nil {
		return false
	}
	stored, ok := p.facts.obj[obj][p.Analyzer.Name]
	if !ok {
		return false
	}
	return copyFact(stored, f)
}

// ExportPackageFact attaches f to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	if p.facts == nil {
		return
	}
	p.facts.setPkg(p.Pkg, p.Analyzer.Name, f)
}

// AllPackageFacts returns every package fact of this analyzer's type in
// the store (dependencies and the package under analysis), sorted by
// package path so iteration is deterministic.
func (p *Pass) AllPackageFacts() []PackageFact {
	if p.facts == nil {
		return nil
	}
	var out []PackageFact
	for pkg, m := range p.facts.pkg {
		if f, ok := m[p.Analyzer.Name]; ok {
			out = append(out, PackageFact{Pkg: pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pkg.Path() < out[j].Pkg.Path() })
	return out
}

// copyFact copies src's pointee into dst's pointee. Both must be
// pointers to the same concrete fact type.
func copyFact(src, dst Fact) bool {
	sv, dv := reflect.ValueOf(src), reflect.ValueOf(dst)
	if sv.Type() != dv.Type() || dv.Kind() != reflect.Pointer || dv.IsNil() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// --- Object paths -------------------------------------------------------

// objectPath returns a stable in-package key for obj, resolvable
// against the imported package on the other side of a vetx file:
// "FuncName" for a package-level function, "Type.Method" for a method
// (pointer receivers normalized away). Objects without a stable path
// (locals, closures, fields) return "".
func objectPath(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		if fn.Pkg() == nil || fn.Pkg().Scope().Lookup(fn.Name()) != fn {
			return "" // local function value, init, …
		}
		return fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// resolveObjectPath finds the object named by an objectPath key in pkg,
// or nil.
func resolveObjectPath(pkg *types.Package, path string) types.Object {
	typeName, method, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		return nil
	}
	if !isMethod {
		if _, ok := obj.(*types.Func); ok {
			return obj
		}
		return nil
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// --- vetx serialization -------------------------------------------------

// vetxFact is one fact on the wire. Obj is empty for package facts.
type vetxFact struct {
	Pkg      string          `json:"pkg"`
	Obj      string          `json:"obj,omitempty"`
	Analyzer string          `json:"analyzer"`
	Type     string          `json:"type"`
	Fact     json.RawMessage `json:"fact"`
}

// vetxPayload is the whole facts file of one package unit. The file
// carries every fact visible to the unit — its own plus re-exported
// dependency facts — so downstream units see transitive facts even
// when they import the source package only indirectly.
type vetxPayload struct {
	Version int        `json:"version"`
	Facts   []vetxFact `json:"facts,omitempty"`
}

const vetxVersion = 1

// factTypeName is the registry key of a concrete fact type.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// factRegistry maps analyzer → fact type name → concrete type, built
// from the analyzers' FactTypes declarations.
func factRegistry(analyzers []*Analyzer) map[string]map[string]reflect.Type {
	reg := make(map[string]map[string]reflect.Type)
	for _, a := range analyzers {
		for _, proto := range a.FactTypes {
			t := reflect.TypeOf(proto)
			if t.Kind() != reflect.Pointer {
				continue
			}
			m := reg[a.Name]
			if m == nil {
				m = make(map[string]reflect.Type)
				reg[a.Name] = m
			}
			m[t.Elem().Name()] = t.Elem()
		}
	}
	return reg
}

// EncodeFacts serializes every fact in fs into a vetx payload. Facts on
// objects without a stable path are dropped (nothing downstream could
// resolve them anyway). The output is sorted so identical analyses
// produce byte-identical files — cmd/go content-hashes them.
func EncodeFacts(fs *FactSet) ([]byte, error) {
	payload := vetxPayload{Version: vetxVersion}
	for obj, byAnalyzer := range fs.obj {
		path := objectPath(obj)
		if path == "" || obj.Pkg() == nil {
			continue
		}
		for analyzer, f := range byAnalyzer {
			raw, err := json.Marshal(f)
			if err != nil {
				return nil, fmt.Errorf("encoding %s fact for %s: %w", analyzer, path, err)
			}
			payload.Facts = append(payload.Facts, vetxFact{
				Pkg: obj.Pkg().Path(), Obj: path, Analyzer: analyzer,
				Type: factTypeName(f), Fact: raw,
			})
		}
	}
	for pkg, byAnalyzer := range fs.pkg {
		for analyzer, f := range byAnalyzer {
			raw, err := json.Marshal(f)
			if err != nil {
				return nil, fmt.Errorf("encoding %s package fact for %s: %w", analyzer, pkg.Path(), err)
			}
			payload.Facts = append(payload.Facts, vetxFact{
				Pkg: pkg.Path(), Analyzer: analyzer, Type: factTypeName(f), Fact: raw,
			})
		}
	}
	sort.Slice(payload.Facts, func(i, j int) bool {
		a, b := payload.Facts[i], payload.Facts[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Analyzer < b.Analyzer
	})
	return json.Marshal(payload)
}

// DecodeFacts merges the facts serialized in data into fs, resolving
// fact owners against pkgs (package path → package). Facts whose
// package is not in pkgs, whose object no longer resolves, or whose
// type is not registered by any analyzer are skipped silently — a
// missing fact degrades precision, never correctness.
func DecodeFacts(fs *FactSet, data []byte, pkgs map[string]*types.Package, analyzers []*Analyzer) error {
	if len(data) == 0 {
		return nil
	}
	var payload vetxPayload
	if err := json.Unmarshal(data, &payload); err != nil {
		return fmt.Errorf("decoding facts: %w", err)
	}
	reg := factRegistry(analyzers)
	for _, vf := range payload.Facts {
		concrete, ok := reg[vf.Analyzer][vf.Type]
		if !ok {
			continue
		}
		pkg := pkgs[vf.Pkg]
		if pkg == nil {
			continue
		}
		fv := reflect.New(concrete)
		if err := json.Unmarshal(vf.Fact, fv.Interface()); err != nil {
			continue
		}
		f, ok := fv.Interface().(Fact)
		if !ok {
			continue
		}
		if vf.Obj == "" {
			fs.setPkg(pkg, vf.Analyzer, f)
			continue
		}
		if obj := resolveObjectPath(pkg, vf.Obj); obj != nil {
			fs.setObj(obj, vf.Analyzer, f)
		}
	}
	return nil
}
