package casebase

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qosalloc/internal/attr"
)

func TestPaperCaseBaseBuilds(t *testing.T) {
	cb, err := PaperCaseBase()
	if err != nil {
		t.Fatalf("PaperCaseBase: %v", err)
	}
	if cb.NumTypes() != 2 {
		t.Errorf("NumTypes = %d, want 2 (FIR equalizer, 1D-FFT)", cb.NumTypes())
	}
	if cb.NumImpls() != 5 {
		t.Errorf("NumImpls = %d, want 5", cb.NumImpls())
	}
	ft, ok := cb.Type(TypeFIREqualizer)
	if !ok {
		t.Fatal("FIR equalizer type missing")
	}
	if len(ft.Impls) != 3 {
		t.Fatalf("FIR equalizer has %d impls, want 3", len(ft.Impls))
	}
	// Fig. 3 values, spot-checked.
	dsp, ok := ft.Impl(2)
	if !ok || dsp.Target != TargetDSP {
		t.Fatal("impl 2 should be the DSP variant")
	}
	if v, ok := dsp.Attr(AttrOutputMode); !ok || v != 1 {
		t.Errorf("DSP output mode = %d,%v, want 1 (stereo)", v, ok)
	}
	gpp, _ := ft.Impl(3)
	if v, ok := gpp.Attr(AttrSampleRate); !ok || v != 22 {
		t.Errorf("GPP sample rate = %d,%v, want 22", v, ok)
	}
}

func TestImplAttrMissing(t *testing.T) {
	cb, _ := PaperCaseBase()
	ft, _ := cb.Type(Type1DFFT)
	im, _ := ft.Impl(1)
	if _, ok := im.Attr(AttrOutputMode); ok {
		t.Error("FFT FPGA variant should not define output-mode")
	}
	if v, ok := im.Attr(AttrBitwidth); !ok || v != 16 {
		t.Errorf("Attr(bitwidth) = %d,%v", v, ok)
	}
}

// TestImplAttrMatchesSortSearch checks the written-out binary search
// against sort.Search for every probe ID around sorted attribute sets of
// every length up to 17, including the empty set, with sparse IDs and
// with repeated IDs (which Build rejects, but the search must still
// pick the same pair).
func TestImplAttrMatchesSortSearch(t *testing.T) {
	for _, step := range []int{0, 1, 3} {
		for n := 0; n <= 17; n++ {
			im := Implementation{}
			for i := 0; i < n; i++ {
				im.Attrs = append(im.Attrs, attr.Pair{ID: attr.ID(step*i + 2 + i/3), Value: attr.Value(100 + i)})
			}
			for id := attr.ID(0); id <= attr.ID((step+1)*n+3); id++ {
				i := sort.Search(len(im.Attrs), func(i int) bool { return im.Attrs[i].ID >= id })
				var want attr.Value
				found := i < len(im.Attrs) && im.Attrs[i].ID == id
				if found {
					want = im.Attrs[i].Value
				}
				if v, ok := im.Attr(id); v != want || ok != found {
					t.Errorf("step=%d n=%d Attr(%d) = %d,%v, want %d,%v", step, n, id, v, ok, want, found)
				}
			}
		}
	}
}

func TestTypeLookupMiss(t *testing.T) {
	cb, _ := PaperCaseBase()
	if _, ok := cb.Type(999); ok {
		t.Error("lookup of unknown type must fail")
	}
}

func TestStats(t *testing.T) {
	cb, _ := PaperCaseBase()
	s := cb.Stats()
	if s.Types != 2 || s.Impls != 5 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxImpls != 3 {
		t.Errorf("MaxImpls = %d, want 3", s.MaxImpls)
	}
	if s.MaxAttrs != 4 {
		t.Errorf("MaxAttrs = %d, want 4", s.MaxAttrs)
	}
	if s.AttrTypeUniv != 4 {
		t.Errorf("AttrTypeUniv = %d, want 4", s.AttrTypeUniv)
	}
}

func TestBuilderRejectsReservedTypeID(t *testing.T) {
	for _, id := range []TypeID{0, 0xFFFF} {
		b := NewBuilder(PaperRegistry())
		b.AddType(id, "bad")
		if _, err := b.Build(); err == nil {
			t.Errorf("type ID %d must be rejected", id)
		}
	}
}

func TestBuilderRejectsDuplicateType(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "a").AddType(1, "b")
	b.AddImpl(1, Implementation{ID: 1})
	if _, err := b.Build(); err == nil {
		t.Error("duplicate type must be rejected")
	}
}

func TestBuilderRejectsEmptyType(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "empty")
	if _, err := b.Build(); err == nil {
		t.Error("type without implementations must be rejected")
	}
}

func TestBuilderRejectsUndeclaredType(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddImpl(42, Implementation{ID: 1})
	if _, err := b.Build(); err == nil {
		t.Error("AddImpl to undeclared type must be rejected")
	}
}

func TestBuilderRejectsDuplicateImpl(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 5})
	b.AddImpl(1, Implementation{ID: 5})
	if _, err := b.Build(); err == nil {
		t.Error("duplicate impl ID must be rejected")
	}
}

func TestBuilderRejectsReservedImplID(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 0xFFFF})
	if _, err := b.Build(); err == nil {
		t.Error("reserved impl ID must be rejected")
	}
}

func TestBuilderRejectsOutOfBoundsAttr(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 1, Attrs: []attr.Pair{{ID: AttrBitwidth, Value: 64}}})
	if _, err := b.Build(); err == nil {
		t.Error("out-of-bounds attribute must be rejected")
	}
}

func TestBuilderRejectsUnknownAttr(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 1, Attrs: []attr.Pair{{ID: 99, Value: 1}}})
	if _, err := b.Build(); err == nil {
		t.Error("unknown attribute ID must be rejected")
	}
}

func TestBuilderSortsImplAttrs(t *testing.T) {
	b := NewBuilder(PaperRegistry())
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 1, Attrs: []attr.Pair{
		{ID: AttrSampleRate, Value: 44},
		{ID: AttrBitwidth, Value: 16},
	}})
	cb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := cb.Type(1)
	im, _ := ft.Impl(1)
	if im.Attrs[0].ID != AttrBitwidth {
		t.Errorf("attrs not sorted: %v", im.Attrs)
	}
}

func TestBuildSealsRegistry(t *testing.T) {
	reg := PaperRegistry()
	b := NewBuilder(reg)
	b.AddType(1, "t")
	b.AddImpl(1, Implementation{ID: 1, Attrs: []attr.Pair{{ID: AttrBitwidth, Value: 8}}})
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if !reg.Sealed() {
		t.Error("Build must seal the registry")
	}
}

func TestTargetString(t *testing.T) {
	if TargetFPGA.String() != "FPGA" || TargetDSP.String() != "DSP" || TargetGPP.String() != "GP-Proc" {
		t.Error("Target.String names wrong")
	}
}

// TestDerive checks the derived constructor on the paper tree: a
// replaced type is admitted, sorted and validated like Builder input
// while unreplaced types and carried variants stay shared, and misuse
// (an undeclared type, types out of order) is refused.
func TestDerive(t *testing.T) {
	cb, _ := PaperCaseBase()
	fir, _ := cb.Type(TypeFIREqualizer)
	fft, _ := cb.Type(Type1DFFT)

	// Keep FIR's variants 3 and 1, in that order, and add a variant 7.
	impls := []Implementation{fir.Impls[2], fir.Impls[0], {ID: 7, Attrs: []attr.Pair{
		{ID: AttrBitwidth, Value: 16}, {ID: AttrSampleRate, Value: 30},
	}}}
	next, err := cb.Derive([]FunctionType{{ID: fir.ID, Name: fir.Name, Impls: impls}})
	if err != nil {
		t.Fatal(err)
	}
	nfir, _ := next.Type(TypeFIREqualizer)
	var ids []ImplID
	for _, im := range nfir.Impls {
		ids = append(ids, im.ID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 7 {
		t.Fatalf("derived FIR variants = %v, want [1 3 7]", ids)
	}
	if &nfir.Impls[0].Attrs[0] != &fir.Impls[0].Attrs[0] {
		t.Error("carried variant 1 does not share its attributes")
	}
	if nfft, _ := next.Type(Type1DFFT); &nfft.Impls[0] != &fft.Impls[0] {
		t.Error("unreplaced type was copied")
	}
	if next.Registry() != cb.Registry() {
		t.Error("registry not shared")
	}
	if len(fir.Impls) != 3 || fir.Impls[1].ID != 2 {
		t.Error("Derive changed its base")
	}

	// Errors come in Builder order: admission first, then validation.
	// Attributes are checked, not sorted.
	_, err = cb.Derive([]FunctionType{
		{ID: fir.ID, Name: fir.Name, Impls: []Implementation{
			{ID: 9, Attrs: []attr.Pair{{ID: AttrSampleRate, Value: 9999}, {ID: AttrBitwidth, Value: 16}}},
			{ID: 0xFFFF},
		}},
		{ID: fft.ID, Name: fft.Name},
	})
	want := "casebase: impl ID 65535 is reserved (type 1)\n" +
		"casebase: type 1 impl 9: attr: pairs not strictly ascending at index 1 (ID 1 after 4)\n" +
		"casebase: type 1 impl 9: attr: \"sample-rate\" value 9999 outside design bounds [8, 44]\n" +
		"casebase: function type 2 (1D-FFT) has no implementations"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant %s", err, want)
	}

	if _, err := cb.Derive([]FunctionType{{ID: 42, Impls: slices.Clone(fir.Impls)}}); err == nil {
		t.Error("Derive of an undeclared type succeeded")
	}
	if _, err := cb.Derive([]FunctionType{
		{ID: fft.ID, Impls: slices.Clone(fft.Impls)}, {ID: fir.ID, Impls: slices.Clone(fir.Impls)},
	}); err == nil {
		t.Error("Derive of types out of order succeeded")
	}
}

// checkImplOrder fails t unless every type of cb lists its variants in
// strictly ascending ID order, the order retrieval's tie rule rests on,
// and unless Type finds each type at its own entry and no other ID: the
// two reserved ones, the ID just above the highest type, and those of
// absent.
func checkImplOrder(t *testing.T, cb *CaseBase, step string, absent []TypeID) {
	t.Helper()
	for k := range cb.Types() {
		ft := &cb.Types()[k]
		for i := 1; i < len(ft.Impls); i++ {
			if ft.Impls[i].ID <= ft.Impls[i-1].ID {
				t.Fatalf("%s: type %d: impl %d follows impl %d", step, ft.ID, ft.Impls[i].ID, ft.Impls[i-1].ID)
			}
		}
		if got, ok := cb.Type(ft.ID); !ok || got != ft {
			t.Fatalf("%s: Type(%d) = %p, %v; want entry %d", step, ft.ID, got, ok, k)
		}
	}
	last := cb.Types()[cb.NumTypes()-1].ID
	for _, id := range append([]TypeID{0, 0xFFFF, last + 1}, absent...) {
		if ft, ok := cb.Type(id); ok {
			t.Fatalf("%s: Type(%d) found type %d", step, id, ft.ID)
		}
	}
}

// TestImplsAscendingByID checks the variant order of every type after
// Build, from variants added in random order under sparse IDs up to
// 0xFFFE, and after each of a chain of Derives that retire, revise and
// retain variants and hand Derive the list in random order; every
// earlier epoch must keep its order too. Type lookups must hit exactly
// the declared types.
func TestImplsAscendingByID(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	drawIDs := func(n int) []uint16 {
		seen := map[uint16]bool{}
		var ids []uint16
		for len(ids) < n {
			id := uint16(1 + rng.Intn(0xFFFE))
			if rng.Intn(4) == 0 {
				id = 0xFFFE - uint16(rng.Intn(4))
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		return ids
	}
	for tree := 0; tree < 40; tree++ {
		reg := randomRegistry(rng, 1+rng.Intn(8), tree%2 == 0)
		b := NewBuilder(reg)
		typeIDs := drawIDs(2 + rng.Intn(6))
		declared, absent := typeIDs[:len(typeIDs)-1], []TypeID{TypeID(typeIDs[len(typeIDs)-1])}
		for _, tid := range declared {
			b.AddType(TypeID(tid), "t")
			for _, id := range drawIDs(1 + rng.Intn(20)) {
				b.AddImpl(TypeID(tid), Implementation{ID: ImplID(id), Attrs: randomAttrs(rng, reg)})
			}
		}
		cb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkImplOrder(t, cb, "build", absent)
		epochs := []*CaseBase{cb}
		for step := 0; step < 6; step++ {
			var types []FunctionType
			for k := range cb.Types() {
				if rng.Intn(2) != 0 {
					continue
				}
				ft := mutate(rng, reg, &cb.Types()[k], false)
				// mutate retains above the highest ID, which may pass
				// 0xFFFE; drop those and retain under unused IDs instead.
				ft.Impls = slices.DeleteFunc(ft.Impls, func(im Implementation) bool { return im.ID == 0 || im.ID == 0xFFFF })
				for n := rng.Intn(3); n > 0 || len(ft.Impls) == 0; n-- {
					id := ImplID(1 + rng.Intn(0xFFFE))
					if _, taken := ft.Impl(id); !taken {
						ft.Impls = append(ft.Impls, Implementation{ID: id, Attrs: randomAttrs(rng, reg)})
					}
				}
				rng.Shuffle(len(ft.Impls), func(i, j int) { ft.Impls[i], ft.Impls[j] = ft.Impls[j], ft.Impls[i] })
				types = append(types, ft)
			}
			if cb, err = cb.Derive(types); err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, cb)
			for i, e := range epochs {
				checkImplOrder(t, e, fmt.Sprintf("derive %d, epoch %d", step, i), absent)
			}
		}
	}
}
