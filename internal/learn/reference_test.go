package learn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

// referenceBuild is Builder.Build as it stood before commits became
// incremental: every variant of every type goes back through
// casebase.Builder, which copies and sorts each attribute list and
// validates every pair again. It is kept only as the differential-test
// reference for Build.
func referenceBuild(b *Builder) (*casebase.CaseBase, int, error) {
	cbb := casebase.NewBuilder(b.base.Registry())
	revised := make(map[implKey]map[attr.ID]attr.Value)
	for _, r := range b.revised {
		if revised[r.k] == nil {
			revised[r.k] = make(map[attr.ID]attr.Value)
		}
		revised[r.k][r.id] = r.v
	}
	changed := 0
	for _, ft := range b.base.Types() {
		cbb.AddType(ft.ID, ft.Name)
		for i := range ft.Impls {
			im := ft.Impls[i]
			k := implKey{ft.ID, im.ID}
			if slices.Contains(b.retired, k) {
				changed++
				continue
			}
			if rev, ok := revised[k]; ok {
				attrs := append([]attr.Pair(nil), im.Attrs...)
				implChanged := false
				for j := range attrs {
					if v, ok := rev[attrs[j].ID]; ok && v != attrs[j].Value {
						attrs[j].Value = v
						implChanged = true
					}
				}
				im.Attrs = attrs
				if implChanged {
					changed++
				}
			}
			cbb.AddImpl(ft.ID, im)
		}
		var news []casebase.Implementation
		for _, r := range b.retained {
			if r.t == ft.ID {
				news = append(news, r.im)
			}
		}
		sort.Slice(news, func(i, j int) bool { return news[i].ID < news[j].ID })
		for _, im := range news {
			cbb.AddImpl(ft.ID, im)
			changed++
		}
	}
	cb, err := cbb.Build()
	if err != nil {
		return nil, 0, err
	}
	return cb, changed, nil
}

// stagedOp is one staging call, applied identically to the builder under
// test and to the reference's builder.
type stagedOp func(b *Builder) (casebase.ImplID, error)

// deepCopyTypes copies a tree down to the attribute pairs, so a later
// comparison notices any write through a shared slice.
func deepCopyTypes(types []casebase.FunctionType) []casebase.FunctionType {
	out := make([]casebase.FunctionType, len(types))
	for i, ft := range types {
		out[i] = ft
		out[i].Impls = make([]casebase.Implementation, len(ft.Impls))
		for j, im := range ft.Impls {
			out[i].Impls[j] = im
			out[i].Impls[j].Attrs = append([]attr.Pair(nil), im.Attrs...)
		}
	}
	return out
}

// randomValue draws a revision or retained value: the committed value
// (a no-op revision), either design bound, one LSB inside a bound,
// anything inside the bounds, or — when wild — sometimes a value outside
// them.
func randomValue(rng *rand.Rand, d attr.Def, committed attr.Value, wild bool) attr.Value {
	switch k := rng.Intn(12); {
	case k < 3:
		return committed
	case k < 5:
		return d.Lo
	case k < 7:
		return d.Hi
	case k == 7 && d.Hi > d.Lo:
		return d.Hi - 1
	case k == 8 && wild && d.Hi < 0xFFFF:
		return d.Hi + 1 + attr.Value(rng.Intn(3))
	default:
		return d.Lo + attr.Value(rng.Intn(int(d.Hi-d.Lo)+1))
	}
}

// randomAttrs draws a retained variant's attribute list from a template
// variant: a plain copy, values at or beyond the bounds, a duplicated
// attribute ID, reversed or shuffled order, an undefined attribute, or
// none at all.
func randomAttrs(rng *rand.Rand, reg *attr.Registry, tmpl []attr.Pair) []attr.Pair {
	ps := append([]attr.Pair(nil), tmpl...)
	for i := range ps {
		if rng.Intn(3) == 0 {
			d, _ := reg.Lookup(ps[i].ID)
			ps[i].Value = randomValue(rng, d, ps[i].Value, rng.Intn(4) == 0)
		}
	}
	switch rng.Intn(16) {
	case 0:
		if len(ps) > 0 {
			ps = append(ps, attr.Pair{ID: ps[rng.Intn(len(ps))].ID, Value: ps[0].Value})
		}
	case 1:
		for i, j := 0, len(ps)-1; i < j; i, j = i+1, j-1 {
			ps[i], ps[j] = ps[j], ps[i]
		}
	case 2:
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	case 3:
		ps = append(ps, attr.Pair{ID: attr.ID(reg.Len() + 1 + rng.Intn(3)), Value: 1})
	case 4:
		ps = nil
	}
	return ps
}

// randomCommit stages one commit's worth of revisions, retains and
// retires over base.
func randomCommit(rng *rand.Rand, base *casebase.CaseBase) []stagedOp {
	types := base.Types()
	reg := base.Registry()
	var ops []stagedOp
	if rng.Intn(10) == 0 {
		return nil // an empty commit
	}
	for n := rng.Intn(30); n > 0; n-- {
		ft := &types[rng.Intn(len(types))]
		im := &ft.Impls[rng.Intn(len(ft.Impls))]
		k := implKey{ft.ID, im.ID}
		var id attr.ID
		var v attr.Value
		if rng.Intn(20) == 0 || len(im.Attrs) == 0 {
			id, v = attr.ID(1+rng.Intn(reg.Len()+2)), attr.Value(rng.Intn(100))
		} else {
			p := im.Attrs[rng.Intn(len(im.Attrs))]
			d, _ := reg.Lookup(p.ID)
			id, v = p.ID, randomValue(rng, d, p.Value, rng.Intn(25) == 0)
		}
		ops = append(ops, func(b *Builder) (casebase.ImplID, error) {
			b.revise(k, id, v)
			return 0, nil
		})
	}
	for n := rng.Intn(3); n > 0; n-- {
		ft := &types[rng.Intn(len(types))]
		tmpl := &ft.Impls[rng.Intn(len(ft.Impls))]
		var id casebase.ImplID
		switch k := rng.Intn(8); {
		case k < 3:
			id = 0
		case k == 3:
			id = casebase.ImplID(1 + rng.Intn(3))
		case k == 4:
			id = ft.Impls[rng.Intn(len(ft.Impls))].ID
		case k == 5:
			id = 0xFFFF
		default:
			id = casebase.ImplID(100 + rng.Intn(40))
		}
		im := casebase.Implementation{
			ID: id, Name: fmt.Sprintf("retained-%d", rng.Intn(1000)),
			Target: tmpl.Target, Foot: tmpl.Foot,
			Attrs: randomAttrs(rng, reg, tmpl.Attrs),
		}
		t := ft.ID
		if rng.Intn(25) == 0 {
			t = 0xFFF0 // an unknown type
		}
		ops = append(ops, func(b *Builder) (casebase.ImplID, error) { return b.Retain(t, im) })
		if id == 0xFFFF && rng.Intn(2) == 0 {
			// The next free ID after 0xFFFF wraps to the reserved 0.
			wrap := im
			wrap.ID = 0
			ops = append(ops, func(b *Builder) (casebase.ImplID, error) { return b.Retain(t, wrap) })
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		ft := &types[rng.Intn(len(types))]
		if rng.Intn(12) == 0 {
			// Retire the whole type: its last variant fails the build.
			for _, im := range ft.Impls {
				t, id := ft.ID, im.ID
				ops = append(ops, func(b *Builder) (casebase.ImplID, error) { return 0, b.Retire(t, id) })
			}
			continue
		}
		t, id := ft.ID, ft.Impls[rng.Intn(len(ft.Impls))].ID
		if rng.Intn(25) == 0 {
			id = 0xFFF0 // an unknown variant
		}
		ops = append(ops, func(b *Builder) (casebase.ImplID, error) { return 0, b.Retire(t, id) })
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkShared asserts that next, built by b, shares with b's base what
// the commit left alone: the Impls array of every type it did not
// change (no edit, or only revisions to the committed values), and the
// Attrs array of every surviving variant no revision changed.
func checkShared(t *testing.T, where string, b *Builder, next *casebase.CaseBase) {
	t.Helper()
	structural := make(map[casebase.TypeID]bool)
	for _, k := range b.retired {
		structural[k.t] = true
	}
	for _, r := range b.retained {
		structural[r.t] = true
	}
	for i, ft := range b.base.Types() {
		nt := next.Types()[i]
		if !structural[ft.ID] && reflect.DeepEqual(nt, ft) && &nt.Impls[0] != &ft.Impls[0] {
			t.Fatalf("%s: unchanged type %d was copied", where, ft.ID)
		}
		for j := range nt.Impls {
			im := &nt.Impls[j]
			old, ok := ft.Impl(im.ID)
			if !ok || len(im.Attrs) == 0 || !reflect.DeepEqual(im.Attrs, old.Attrs) {
				continue
			}
			retained := false
			for _, r := range b.retained {
				retained = retained || r.t == ft.ID && r.im.ID == im.ID
			}
			if !retained && &im.Attrs[0] != &old.Attrs[0] {
				t.Fatalf("%s: unchanged variant %d/%d was copied", where, ft.ID, im.ID)
			}
		}
	}
}

// TestBuildMatchesFullRebuild runs seeded commit sequences over the
// paper's case base and a generated 24×16×8 one, staging every commit
// into two builders over the same base: Build must produce the tree,
// the changed count and the error text referenceBuild does, and must
// leave the base it read untouched, sharing with it every type and
// variant the commit did not change. Each successful commit becomes the
// next one's base, so sequences also build on derived trees.
func TestBuildMatchesFullRebuild(t *testing.T) {
	paper, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 24, ImplsPerType: 16, AttrsPerImpl: 8, AttrUniverse: 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	commits, fails := 0, 0
	for _, start := range []struct {
		name string
		cb   *casebase.CaseBase
	}{{"paper", paper}, {"gen24x16x8", gen}} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := start.cb
			for step := 0; step < 60; step++ {
				where := fmt.Sprintf("%s seed %d step %d", start.name, seed, step)
				ops := randomCommit(rng, base)
				before := deepCopyTypes(base.Types())
				got, ref := NewBuilder(base), NewBuilder(base)
				for i, op := range ops {
					gid, gerr := op(got)
					rid, rerr := op(ref)
					if gid != rid || errText(gerr) != errText(rerr) {
						t.Fatalf("%s op %d: staged (%d, %v), reference (%d, %v)", where, i, gid, gerr, rid, rerr)
					}
				}
				cb, changed, err := got.Build()
				want, wantChanged, wantErr := referenceBuild(ref)
				if errText(err) != errText(wantErr) {
					t.Fatalf("%s: err\n%v\nwant\n%v", where, err, wantErr)
				}
				if changed != wantChanged {
					t.Fatalf("%s: changed = %d, want %d", where, changed, wantChanged)
				}
				if !reflect.DeepEqual(base.Types(), before) {
					t.Fatalf("%s: Build modified its base", where)
				}
				commits++
				if wantErr != nil {
					fails++
					continue
				}
				if cb.Registry() != want.Registry() || cb.NumTypes() != want.NumTypes() {
					t.Fatalf("%s: registry or type count differs", where)
				}
				if !reflect.DeepEqual(cb.Types(), want.Types()) {
					t.Fatalf("%s: Types() differ from the full rebuild", where)
				}
				for _, ft := range want.Types() {
					g, ok := cb.Type(ft.ID)
					if !ok || !reflect.DeepEqual(*g, ft) {
						t.Fatalf("%s: Type(%d) = %+v, want %+v", where, ft.ID, g, ft)
					}
				}
				if _, ok := cb.Type(0xFFF0); ok {
					t.Fatalf("%s: Type(0xFFF0) found", where)
				}
				checkShared(t, where, got, cb)
				base = cb
			}
		}
	}
	// The schedules must exercise both outcomes.
	if fails == 0 || fails == commits {
		t.Fatalf("%d of %d commits failed: schedule does not cover both outcomes", fails, commits)
	}
	t.Logf("%d commits, %d rejected", commits, fails)
}

// TestBuildSkipsRevisionsOfAbsentVariants stages revisions for a type
// and a variant the base does not have, sorting before and after the
// real ones, and checks that Build still applies every real revision.
func TestBuildSkipsRevisionsOfAbsentVariants(t *testing.T) {
	base, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	got, ref := NewBuilder(base), NewBuilder(base)
	for _, ft := range base.Types() {
		im := ft.Impls[len(ft.Impls)-1]
		p := im.Attrs[0]
		if d, _ := base.Registry().Lookup(p.ID); p.Value < d.Hi {
			p.Value++
		} else {
			p.Value--
		}
		for _, b := range []*Builder{got, ref} {
			b.revise(implKey{0, im.ID}, p.ID, p.Value)
			b.revise(implKey{ft.ID, 0}, p.ID, p.Value)
			b.revise(implKey{ft.ID, im.ID}, p.ID, p.Value)
			b.revise(implKey{ft.ID, 0xFFF0}, p.ID, p.Value)
			b.revise(implKey{0xFFF0, im.ID}, p.ID, p.Value)
		}
	}
	cb, changed, err := got.Build()
	want, wantChanged, wantErr := referenceBuild(ref)
	if err != nil || wantErr != nil {
		t.Fatal(err, wantErr)
	}
	if changed != base.NumTypes() || changed != wantChanged {
		t.Fatalf("changed = %d, reference %d, want %d", changed, wantChanged, base.NumTypes())
	}
	if !reflect.DeepEqual(cb.Types(), want.Types()) {
		t.Fatal("Types() differ from the full rebuild")
	}
}
