package casebase

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qosalloc/internal/attr"
)

// checkColumns fails t unless, in every type of cb, the attribute column
// of every registry ID (and of the two reserved IDs) answers exactly what
// Implementation.Attr answers for every variant, and is nil exactly when
// no variant describes the ID.
func checkColumns(t *testing.T, cb *CaseBase, step string) {
	t.Helper()
	probes := append([]attr.ID{0, 0xFFFF}, cb.Registry().IDs()...)
	for k := range cb.Types() {
		ft := &cb.Types()[k]
		for _, id := range probes {
			col := ft.Column(id)
			if col != nil && len(col) != len(ft.Impls) {
				t.Fatalf("%s: type %d column %d has %d cells for %d variants", step, ft.ID, id, len(col), len(ft.Impls))
			}
			described := false
			for i := range ft.Impls {
				v, ok := ft.Impls[i].Attr(id)
				described = described || ok
				var got Cell
				if col != nil {
					got = col[i]
				}
				if want := (Cell{Value: v, Found: ok}); got != want {
					t.Fatalf("%s: type %d impl %d: Column(%d) cell = %+v, Attr says %+v", step, ft.ID, ft.Impls[i].ID, id, got, want)
				}
			}
			if described != (col != nil) {
				t.Fatalf("%s: type %d: Column(%d) nil = %v, but a variant describes it = %v", step, ft.ID, id, col == nil, described)
			}
		}
	}
}

// randomRegistry defines n attribute types with distinct random IDs: in
// [1, 40] when narrow, else anywhere in [1, 0xFFFE], so that one type's ID
// range can exceed the index's stack table.
func randomRegistry(rng *rand.Rand, n int, narrow bool) *attr.Registry {
	reg := attr.NewRegistry()
	for reg.Len() < n {
		id := attr.ID(1 + rng.Intn(0xFFFE))
		if narrow {
			id = attr.ID(1 + rng.Intn(40))
		}
		if _, dup := reg.Lookup(id); !dup {
			reg.MustDefine(attr.Def{ID: id, Name: "a", Lo: 0, Hi: attr.Value(1 + rng.Intn(1000))})
		}
	}
	return reg
}

// randomAttrs draws a random subset of reg's attribute types, possibly
// empty, with random in-bounds values, sorted by ID.
func randomAttrs(rng *rand.Rand, reg *attr.Registry) []attr.Pair {
	var ps []attr.Pair
	for _, id := range reg.IDs() {
		if rng.Intn(3) == 0 {
			continue
		}
		d, _ := reg.Lookup(id)
		ps = append(ps, attr.Pair{ID: id, Value: attr.Value(rng.Intn(int(d.Hi) + 1))})
	}
	return ps
}

// mutate returns a commit's edit of ft as Derive receives it. A fold
// (valuesOnly) moves one value of some variants, each in a fresh
// attribute slice; otherwise variants may also lose a pair, swap one
// attribute for another, be retired or be retained under new IDs. The
// other variants are carried with their base attribute slices.
func mutate(rng *rand.Rand, reg *attr.Registry, ft *FunctionType, valuesOnly bool) FunctionType {
	next := FunctionType{ID: ft.ID, Name: ft.Name}
	maxID := ImplID(0)
	for _, im := range ft.Impls {
		maxID = max(maxID, im.ID)
		switch rng.Intn(5) {
		case 0: // retire
			if !valuesOnly && len(ft.Impls) > 1 {
				continue
			}
		case 1: // revise
			if len(im.Attrs) > 0 {
				im.Attrs = slices.Clone(im.Attrs)
				j := rng.Intn(len(im.Attrs))
				switch {
				case valuesOnly || rng.Intn(3) == 0:
					d, _ := reg.Lookup(im.Attrs[j].ID)
					im.Attrs[j].Value = attr.Value(rng.Intn(int(d.Hi) + 1))
				case rng.Intn(2) == 0:
					im.Attrs = slices.Delete(im.Attrs, j, j+1)
				default: // same length, one attribute swapped for another
					for _, id := range reg.IDs() {
						if _, ok := im.Attr(id); !ok {
							im.Attrs[j] = attr.Pair{ID: id}
							attr.SortPairs(im.Attrs)
							break
						}
					}
				}
			}
		}
		next.Impls = append(next.Impls, im)
	}
	if valuesOnly {
		return next
	}
	for n := rng.Intn(3); n > 0 || len(next.Impls) == 0; n-- { // retain
		maxID++
		next.Impls = append(next.Impls, Implementation{ID: maxID, Attrs: randomAttrs(rng, reg)})
	}
	return next
}

// TestColumnsMatchAttr checks the attribute-column index against
// Implementation.Attr on random trees after Build and after each step of
// a chain of Derives, alternating folds (values only) with edits that
// also change attribute IDs, retire and retain, and checks that every
// earlier epoch still answers for its own variants. The last Derive of
// each tree is handed a struct copied from the base type, carrying its
// columns, whose values were then changed: Derive must rebuild them.
func TestColumnsMatchAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for tree := 0; tree < 40; tree++ {
		reg := randomRegistry(rng, 1+rng.Intn(12), tree%2 == 0)
		b := NewBuilder(reg)
		for ti := 1 + rng.Intn(6); ti > 0; ti-- {
			tid := TypeID(ti)
			b.AddType(tid, "t")
			for id, n := ImplID(1), ImplID(1+rng.Intn(20)); id <= n; id++ {
				b.AddImpl(tid, Implementation{ID: id, Attrs: randomAttrs(rng, reg)})
			}
		}
		cb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, cb, "build")
		epochs := []*CaseBase{cb}
		for step := 0; step < 6; step++ {
			var types []FunctionType
			fold := step%2 == 0
			for k := range cb.Types() {
				if rng.Intn(2) == 0 {
					types = append(types, mutate(rng, reg, &cb.Types()[k], fold))
				}
			}
			if cb, err = cb.Derive(types); err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, cb)
			for _, e := range epochs {
				checkColumns(t, e, "derive")
			}
		}

		stale := cb.Types()[rng.Intn(cb.NumTypes())]
		stale.Impls = slices.Clone(stale.Impls)
		for i := range stale.Impls {
			im := &stale.Impls[i]
			im.Attrs = slices.Clone(im.Attrs)
			for j := range im.Attrs {
				d, _ := reg.Lookup(im.Attrs[j].ID)
				im.Attrs[j].Value = d.Hi - im.Attrs[j].Value
			}
		}
		next, err := cb.Derive([]FunctionType{stale})
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, next, "stale copy")
		checkColumns(t, cb, "stale copy base")
	}
}

// Kinds of edit reshape draws for TestDerivePatchMatchesIndex.
const (
	editValues  = iota // fold: moved values only, the variant set kept
	editRetain         // plus a new variant
	editRetire         // plus a variant dropped
	editAttrIDs        // plus one variant whose attribute IDs change
	editKinds
)

// reshape returns an edit of ft as Derive receives it, of the given kind.
// Every kind moves values first: each variant keeps its base attribute
// slice, takes a fresh copy with one value moved, or takes a fresh copy
// with its values unchanged. The variants come in random order, which
// Derive sorts back.
func reshape(rng *rand.Rand, reg *attr.Registry, ft *FunctionType, kind int) FunctionType {
	next := FunctionType{ID: ft.ID, Name: ft.Name, Impls: slices.Clone(ft.Impls)}
	for i := range next.Impls {
		im := &next.Impls[i]
		switch rng.Intn(3) {
		case 0:
			if len(im.Attrs) > 0 {
				im.Attrs = slices.Clone(im.Attrs)
				j := rng.Intn(len(im.Attrs))
				d, _ := reg.Lookup(im.Attrs[j].ID)
				im.Attrs[j].Value = attr.Value(rng.Intn(int(d.Hi) + 1))
			}
		case 1:
			im.Attrs = slices.Clone(im.Attrs)
		}
	}
	switch kind {
	case editRetain:
		maxID := next.Impls[len(next.Impls)-1].ID
		next.Impls = append(next.Impls, Implementation{ID: maxID + 1, Attrs: randomAttrs(rng, reg)})
	case editRetire:
		if len(next.Impls) > 1 {
			i := rng.Intn(len(next.Impls))
			next.Impls = slices.Delete(next.Impls, i, i+1)
		}
	case editAttrIDs:
		im := &next.Impls[rng.Intn(len(next.Impls))]
		im.Attrs = slices.Clone(im.Attrs)
		var absent []attr.ID
		for _, id := range reg.IDs() {
			if _, ok := im.Attr(id); !ok {
				absent = append(absent, id)
			}
		}
		switch {
		case len(im.Attrs) > 0 && len(absent) > 0 && rng.Intn(2) == 0:
			// Same length, one attribute swapped for another.
			im.Attrs[rng.Intn(len(im.Attrs))] = attr.Pair{ID: absent[rng.Intn(len(absent))]}
			attr.SortPairs(im.Attrs)
		case len(im.Attrs) > 0 && rng.Intn(2) == 0:
			im.Attrs = slices.Delete(im.Attrs, 0, 1)
		case len(absent) > 0:
			im.Attrs = append(im.Attrs, attr.Pair{ID: absent[0]})
			attr.SortPairs(im.Attrs)
		}
	}
	rng.Shuffle(len(next.Impls), func(i, j int) { next.Impls[i], next.Impls[j] = next.Impls[j], next.Impls[i] })
	return next
}

// TestDerivePatchMatchesIndex checks Derive's column patch against a
// fresh index of the same variants, on random trees over chains of
// Derives that each edit some types by one kind: values only, a retain,
// a retire, or a variant whose attribute-ID set changes. After every
// Derive, each replaced type's column IDs, cells and every Column must
// equal what index builds, and a values-only edit must have been
// patched: its column IDs are the base type's.
func TestDerivePatchMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	patched := 0
	for tree := 0; tree < 60; tree++ {
		reg := randomRegistry(rng, 1+rng.Intn(12), tree%2 == 0)
		b := NewBuilder(reg)
		for ti := 1 + rng.Intn(6); ti > 0; ti-- {
			tid := TypeID(ti)
			b.AddType(tid, "t")
			for id, n := ImplID(1), ImplID(1+rng.Intn(20)); id <= n; id++ {
				b.AddImpl(tid, Implementation{ID: id, Attrs: randomAttrs(rng, reg)})
			}
		}
		cb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		probes := append([]attr.ID{0, 0xFFFF}, reg.IDs()...)
		for step := 0; step < 8; step++ {
			var types []FunctionType
			kinds := map[TypeID]int{}
			for k := range cb.Types() {
				if rng.Intn(2) == 0 {
					kind := rng.Intn(editKinds)
					kinds[cb.Types()[k].ID] = kind
					types = append(types, reshape(rng, reg, &cb.Types()[k], kind))
				}
			}
			next, err := cb.Derive(types)
			if err != nil {
				t.Fatal(err)
			}
			for k := range next.Types() {
				ft, base := &next.Types()[k], &cb.Types()[k]
				kind, replaced := kinds[ft.ID]
				if !replaced {
					if &ft.Impls[0] != &base.Impls[0] {
						t.Fatalf("tree %d step %d: type %d was not replaced but not shared", tree, step, ft.ID)
					}
					continue
				}
				where := fmt.Sprintf("tree %d step %d type %d (edit %d)", tree, step, ft.ID, kind)
				fresh := FunctionType{ID: ft.ID, Impls: ft.Impls}
				fresh.index()
				if !slices.Equal(ft.colIDs, fresh.colIDs) {
					t.Fatalf("%s: column IDs %v, index builds %v", where, ft.colIDs, fresh.colIDs)
				}
				if !slices.Equal(ft.cells, fresh.cells) {
					t.Fatalf("%s: cells %v, index builds %v", where, ft.cells, fresh.cells)
				}
				for _, id := range probes {
					if got, want := ft.Column(id), fresh.Column(id); !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("%s: Column(%d) = %v, index builds %v", where, id, got, want)
					}
				}
				if kind == editValues && len(ft.colIDs) > 0 {
					if &ft.colIDs[0] != &base.colIDs[0] {
						t.Fatalf("%s: a values-only edit was not patched", where)
					}
					patched++
				}
			}
			cb = next
		}
	}
	if patched == 0 {
		t.Fatal("no Derive took the patch path")
	}
}
