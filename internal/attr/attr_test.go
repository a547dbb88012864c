package attr

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func paperRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	// The §3 FIR-equalizer attribute vocabulary with the Table 1 dmax
	// values: bitwidth dmax=8, output-mode dmax=2, sample-rate dmax=36.
	r.MustDefine(Def{ID: 1, Name: "bitwidth", Unit: "bits", Kind: Numeric, Lo: 8, Hi: 16})
	r.MustDefine(Def{ID: 2, Name: "proc-mode", Kind: Flag, Lo: 0, Hi: 1, Symbols: []string{"integer", "float"}})
	r.MustDefine(Def{ID: 3, Name: "output-mode", Kind: Ordinal, Lo: 0, Hi: 2, Symbols: []string{"mono", "stereo", "surround"}})
	r.MustDefine(Def{ID: 4, Name: "sample-rate", Unit: "kS/s", Kind: Numeric, Lo: 8, Hi: 44})
	return r
}

func TestPaperDMaxValues(t *testing.T) {
	r := paperRegistry(t)
	want := map[ID]uint16{1: 8, 2: 1, 3: 2, 4: 36}
	for id, dm := range want {
		got, err := r.DMax(id)
		if err != nil {
			t.Fatalf("DMax(%d): %v", id, err)
		}
		if got != dm {
			t.Errorf("DMax(%d) = %d, want %d (Table 1)", id, got, dm)
		}
	}
}

func TestDefineRejectsReservedIDs(t *testing.T) {
	r := NewRegistry()
	if err := r.Define(Def{ID: 0, Name: "bad"}); err == nil {
		t.Error("ID 0 must be rejected (list terminator)")
	}
	if err := r.Define(Def{ID: 0xFFFF, Name: "bad"}); err == nil {
		t.Error("ID 0xFFFF must be rejected (list terminator)")
	}
}

func TestDefineRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.MustDefine(Def{ID: 7, Name: "a", Lo: 0, Hi: 1})
	if err := r.Define(Def{ID: 7, Name: "b", Lo: 0, Hi: 1}); err == nil {
		t.Error("duplicate ID must be rejected")
	}
}

func TestDefineRejectsInvertedBounds(t *testing.T) {
	r := NewRegistry()
	if err := r.Define(Def{ID: 3, Name: "x", Lo: 10, Hi: 2}); err == nil {
		t.Error("inverted bounds must be rejected")
	}
}

func TestDefineRejectsBadSymbolCount(t *testing.T) {
	r := NewRegistry()
	err := r.Define(Def{ID: 3, Name: "x", Lo: 0, Hi: 2, Symbols: []string{"only-one"}})
	if err == nil {
		t.Error("mismatched symbol table must be rejected")
	}
}

func TestSealPreventsDefine(t *testing.T) {
	r := NewRegistry()
	r.MustDefine(Def{ID: 1, Name: "a", Lo: 0, Hi: 1})
	r.Seal()
	if !r.Sealed() {
		t.Error("Sealed() should be true")
	}
	if err := r.Define(Def{ID: 2, Name: "b", Lo: 0, Hi: 1}); err == nil {
		t.Error("Define after Seal must fail")
	}
}

func TestValidate(t *testing.T) {
	r := paperRegistry(t)
	if err := r.Validate(Pair{ID: 1, Value: 16}); err != nil {
		t.Errorf("valid pair rejected: %v", err)
	}
	if err := r.Validate(Pair{ID: 1, Value: 32}); err == nil {
		t.Error("out-of-bounds value must be rejected")
	}
	if err := r.Validate(Pair{ID: 99, Value: 0}); err == nil {
		t.Error("unknown ID must be rejected")
	}
}

func TestIDsAscending(t *testing.T) {
	r := NewRegistry()
	for _, id := range []ID{40, 3, 17, 9} {
		r.MustDefine(Def{ID: id, Name: "x", Lo: 0, Hi: 1})
	}
	ids := r.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs() not ascending: %v", ids)
		}
	}
	if len(ids) != 4 {
		t.Fatalf("len(IDs()) = %d", len(ids))
	}
}

func TestSymbolFor(t *testing.T) {
	r := paperRegistry(t)
	d, _ := r.Lookup(3)
	if got := d.SymbolFor(1); got != "stereo" {
		t.Errorf("SymbolFor(1) = %q, want stereo", got)
	}
	d, _ = r.Lookup(4)
	if got := d.SymbolFor(44); !strings.Contains(got, "44") || !strings.Contains(got, "kS/s") {
		t.Errorf("SymbolFor(44) = %q", got)
	}
	d, _ = r.Lookup(3)
	if got := d.SymbolFor(9); got != "9" {
		t.Errorf("out-of-table symbol = %q, want numeric fallback", got)
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Ordinal.String() != "ordinal" || Flag.String() != "flag" {
		t.Error("Kind.String basic names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown Kind should render its number")
	}
}

func TestSortPairsAndCheckSorted(t *testing.T) {
	ps := []Pair{{ID: 4, Value: 40}, {ID: 1, Value: 16}, {ID: 3, Value: 1}}
	if err := CheckSorted(ps); err == nil {
		t.Error("unsorted pairs must fail CheckSorted")
	}
	SortPairs(ps)
	if err := CheckSorted(ps); err != nil {
		t.Errorf("sorted pairs rejected: %v", err)
	}
	if ps[0].ID != 1 || ps[2].ID != 4 {
		t.Errorf("SortPairs order wrong: %v", ps)
	}
	// Duplicates rejected.
	dup := []Pair{{ID: 2, Value: 0}, {ID: 2, Value: 1}}
	if err := CheckSorted(dup); err == nil {
		t.Error("duplicate IDs must fail CheckSorted")
	}
	// Sorting brings duplicates together, and the rejection names the
	// first repeated ID whatever order the sort left equal IDs in.
	dup = []Pair{{ID: 5, Value: 1}, {ID: 2, Value: 0}, {ID: 5, Value: 2}, {ID: 1, Value: 0}}
	SortPairs(dup)
	const want = "attr: pairs not strictly ascending at index 3 (ID 5 after 5)"
	if err := CheckSorted(dup); err == nil || err.Error() != want {
		t.Errorf("CheckSorted(sorted duplicates) = %v, want %q", err, want)
	}
}

// Property: SortPairs output always passes CheckSorted when IDs are unique.
func TestSortPairsProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		seen := map[uint16]bool{}
		var ps []Pair
		for _, id := range ids {
			if id == 0 || seen[id] {
				continue
			}
			seen[id] = true
			ps = append(ps, Pair{ID: ID(id), Value: Value(id)})
		}
		SortPairs(ps)
		return CheckSorted(ps) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	r := paperRegistry(t)
	d, ok := r.ByName("sample-rate")
	if !ok || d.ID != 4 {
		t.Errorf("ByName = %+v, %v", d, ok)
	}
	if _, ok := r.ByName("nope"); ok {
		t.Error("unknown name must miss")
	}
	// Duplicate names resolve to the lowest ID.
	dup := NewRegistry()
	dup.MustDefine(Def{ID: 9, Name: "x", Lo: 0, Hi: 1})
	dup.MustDefine(Def{ID: 3, Name: "x", Lo: 0, Hi: 1})
	if d, _ := dup.ByName("x"); d.ID != 3 {
		t.Errorf("duplicate name resolved to %d, want 3", d.ID)
	}
}

func TestParseValue(t *testing.T) {
	r := paperRegistry(t)
	om, _ := r.Lookup(3)
	if v, err := om.ParseValue("stereo"); err != nil || v != 1 {
		t.Errorf("ParseValue(stereo) = %d, %v", v, err)
	}
	if v, err := om.ParseValue("2"); err != nil || v != 2 {
		t.Errorf("ParseValue(2) = %d, %v", v, err)
	}
	sr, _ := r.Lookup(4)
	if v, err := sr.ParseValue("0x2C"); err != nil || v != 44 {
		t.Errorf("ParseValue(0x2C) = %d, %v", v, err)
	}
	if _, err := sr.ParseValue("fast"); err == nil {
		t.Error("non-symbol non-number must fail")
	}
}

// TestSlotTableMatchesMap checks the registry's ID-indexed slot table
// against a map of the accepted definitions: random definitions, with
// IDs anywhere in [0, 0xFFFF] or bunched at either end, defined in
// random order, some rejected. After every Define, Lookup, DMax and
// Validate must answer as the map does for every defined ID, for IDs
// around them and above the highest one, and for the reserved IDs;
// IDs must list the map's keys in ascending order, and ByName and Len
// must agree.
func TestSlotTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		r, ref := NewRegistry(), map[ID]Def{}
		for n := rng.Intn(30); n > 0; n-- {
			id := ID(rng.Intn(0x10000))
			switch rng.Intn(3) {
			case 0:
				id = ID(rng.Intn(8))
			case 1:
				id = 0xFFFF - ID(rng.Intn(8))
			}
			lo := Value(rng.Intn(0x10000))
			hi := lo + Value(rng.Intn(0x10000-int(lo)))
			if rng.Intn(8) == 0 {
				lo, hi = hi+1, lo // inverted unless hi was 0xFFFF
			}
			d := Def{ID: id, Name: string(rune('a' + rng.Intn(4))), Lo: lo, Hi: hi}
			_, dup := ref[id]
			err := r.Define(d)
			if wantOK := id != 0 && id != 0xFFFF && !dup && lo <= hi; (err == nil) != wantOK {
				t.Fatalf("trial %d: Define(%+v) = %v, want ok %v", trial, d, err, wantOK)
			}
			if err == nil {
				ref[id] = d
			}
			checkAgainstMap(t, r, ref, rng)
		}
	}
}

func checkAgainstMap(t *testing.T, r *Registry, ref map[ID]Def, rng *rand.Rand) {
	t.Helper()
	if r.Len() != len(ref) {
		t.Fatalf("Len = %d, map holds %d", r.Len(), len(ref))
	}
	var keys []ID
	for id := range ref {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	if ids := r.IDs(); !slices.Equal(ids, keys) {
		t.Fatalf("IDs = %v, want %v", ids, keys)
	}
	probes := []ID{0, 1, 0xFFFE, 0xFFFF}
	for _, id := range keys {
		probes = append(probes, id-1, id, id+1)
	}
	for _, id := range probes {
		want, wantOK := ref[id]
		got, ok := r.Lookup(id)
		if ok != wantOK || ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%d) = %+v, %v; want %+v, %v", id, got, ok, want, wantOK)
		}
		dmax, err := r.DMax(id)
		if (err == nil) != wantOK || dmax != want.DMax() {
			t.Fatalf("DMax(%d) = %d, %v; want %d, ok %v", id, dmax, err, want.DMax(), wantOK)
		}
		v := want.Lo + Value(rng.Intn(int(want.Hi-want.Lo)+1))
		if err := r.Validate(Pair{ID: id, Value: v}); (err == nil) != wantOK {
			t.Fatalf("Validate(%d, %d) = %v, want ok %v", id, v, err, wantOK)
		}
		if wantOK && want.Hi < 0xFFFF {
			if err := r.Validate(Pair{ID: id, Value: want.Hi + 1}); err == nil {
				t.Fatalf("Validate(%d, %d) above Hi %d passed", id, want.Hi+1, want.Hi)
			}
		}
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		var want Def
		wantOK := false
		for _, id := range keys {
			if ref[id].Name == name {
				want, wantOK = ref[id], true
				break
			}
		}
		if got, ok := r.ByName(name); ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%q) = %+v, %v; want %+v, %v", name, got, ok, want, wantOK)
		}
	}
}
