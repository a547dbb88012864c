package learn

import (
	"cmp"
	"fmt"
	"slices"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// Builder stages one commit over a committed case base: LSB-quantized
// attribute revisions (written by Delta.FoldInto), retained variants
// and retired IDs. It never mutates the committed base; Build emits the
// next epoch's validated CaseBase, which shares every type and variant
// the commit leaves unchanged with the base. The caller swaps engines,
// regenerates memory images and invalidates bypass tokens — exactly the
// update protocol a dynamic BRAM reload would follow.
type Builder struct {
	base *casebase.CaseBase
	// The staged edits are kept in staging order until Build sorts them
	// by type and variant.
	revised  []revision
	retained []retention
	retired  []implKey
}

// NewBuilder returns an empty builder over the committed base.
func NewBuilder(base *casebase.CaseBase) *Builder { return &Builder{base: base} }

// revision is one staged attribute value of a variant.
type revision struct {
	k  implKey
	id attr.ID
	v  attr.Value
}

// retention is one variant staged for Retain, with its type.
type retention struct {
	t  casebase.TypeID
	im casebase.Implementation
}

// cmpKey orders variant keys by type, then ID.
func cmpKey(x, y implKey) int { return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.i, y.i)) }

// revise stages a quantized value for an attribute the case describes.
// A later value for the same attribute replaces an earlier one.
func (b *Builder) revise(k implKey, id attr.ID, v attr.Value) {
	b.revised = append(b.revised, revision{k, id, v})
}

// sortEdits orders the staged edits by type and variant, keeping only
// the last value staged for each attribute and one retirement of each
// variant. Retained IDs are unique per type, so their order is total.
func (b *Builder) sortEdits() {
	slices.SortFunc(b.retained, func(x, y retention) int {
		return cmpKey(implKey{x.t, x.im.ID}, implKey{y.t, y.im.ID})
	})
	slices.SortFunc(b.retired, cmpKey)
	b.retired = slices.Compact(b.retired)
	key := func(x, y revision) int { return cmp.Or(cmpKey(x.k, y.k), cmp.Compare(x.id, y.id)) }
	slices.SortStableFunc(b.revised, key)
	out := b.revised[:0]
	for j, r := range b.revised {
		if j+1 < len(b.revised) && key(r, b.revised[j+1]) == 0 {
			continue
		}
		out = append(out, r)
	}
	b.revised = out
}

// Retain registers a new implementation variant for a type, the
// run-time repository update. A zero ImplID is assigned the next free
// ID of the type. The variant is validated at Build.
func (b *Builder) Retain(t casebase.TypeID, im casebase.Implementation) (casebase.ImplID, error) {
	ft, ok := b.base.Type(t)
	if !ok {
		return 0, fmt.Errorf("learn: retain for unknown type %d", t)
	}
	if im.ID == 0 {
		im.ID = b.nextFreeImplID(ft)
	} else if _, dup := ft.Impl(im.ID); dup {
		return 0, fmt.Errorf("learn: impl %d already exists in type %d", im.ID, t)
	} else {
		for _, r := range b.retained {
			if r.t == t && r.im.ID == im.ID {
				return 0, fmt.Errorf("learn: impl %d already retained for type %d", im.ID, t)
			}
		}
	}
	b.retained = append(b.retained, retention{t, im})
	return im.ID, nil
}

func (b *Builder) nextFreeImplID(ft *casebase.FunctionType) casebase.ImplID {
	next := casebase.ImplID(1)
	for _, im := range ft.Impls {
		if im.ID >= next {
			next = im.ID + 1
		}
	}
	for _, r := range b.retained {
		if r.t == ft.ID && r.im.ID >= next {
			next = r.im.ID + 1
		}
	}
	return next
}

// Retire marks a variant withdrawn from the repository; Build drops it.
// Retiring the last variant of a type fails at Build (a type with no
// implementations cannot be served).
func (b *Builder) Retire(t casebase.TypeID, id casebase.ImplID) error {
	ft, ok := b.base.Type(t)
	if !ok {
		return fmt.Errorf("learn: retire for unknown type %d", t)
	}
	if _, ok := ft.Impl(id); !ok {
		return fmt.Errorf("learn: retire of unknown impl %d in type %d", id, t)
	}
	b.retired = append(b.retired, implKey{t, id})
	return nil
}

// Build emits the next epoch's CaseBase with every staged revision,
// retention and retirement applied, plus the count of implementation
// entries that differ from the base. Only the types a staged edit
// changes are rebuilt and validated (casebase.CaseBase.Derive); every
// other type, and every variant of a rebuilt type that no revision
// changed, is shared with the base rather than copied. Sorted by type,
// the staged edits give each type its share in one pass over the base's
// types.
func (b *Builder) Build() (*casebase.CaseBase, int, error) {
	b.sortEdits()
	var types []casebase.FunctionType
	changed := 0
	revs, gone, news := b.revised, b.retired, b.retained
	base := b.base.Types()
	for i := range base {
		ft := &base[i]
		var myRevs []revision
		var myGone []implKey
		var myNews []retention
		myRevs, revs = take(revs, func(r revision) int { return cmp.Compare(r.k.t, ft.ID) })
		myGone, gone = take(gone, func(k implKey) int { return cmp.Compare(k.t, ft.ID) })
		myNews, news = take(news, func(r retention) int { return cmp.Compare(r.t, ft.ID) })
		if len(myRevs) == 0 && len(myGone) == 0 && len(myNews) == 0 {
			continue
		}
		impls, n := apply(ft, myRevs, myGone, myNews)
		if n == 0 {
			continue // only no-op revisions: the type stays shared
		}
		types = append(types, casebase.FunctionType{ID: ft.ID, Name: ft.Name, Impls: impls})
		changed += n
	}
	cb, err := b.base.Derive(types)
	if err != nil {
		return nil, 0, err
	}
	return cb, changed, nil
}

// apply returns ft's variants with the type's share of the staged edits
// applied, and the number of entries that changed. revs, gone and news
// are its revisions, retirements and retentions, each sorted by variant
// ID. The variants come in the order casebase.Builder.AddImpl would
// receive them: the surviving base variants in base order, then the
// retained ones by ID. A surviving variant keeps its attribute slice
// unless a revision changes one of its values; a retained variant gets a
// sorted copy of its own. ft's variants are sorted by ID like the edits,
// so one merge pairs them up.
func apply(ft *casebase.FunctionType, revs []revision, gone []implKey, news []retention) ([]casebase.Implementation, int) {
	impls := make([]casebase.Implementation, 0, len(ft.Impls)+len(news))
	changed := 0
	for i := range ft.Impls {
		id := ft.Impls[i].ID
		var mine []revision
		mine, revs = take(revs, func(r revision) int { return cmp.Compare(r.k.i, id) })
		if len(gone) > 0 && gone[0].i == id { // Retire admits only variants of ft
			gone = gone[1:]
			changed++
			continue
		}
		impls = append(impls, ft.Impls[i])
		if attrs := revisedAttrs(ft.Impls[i].Attrs, mine); attrs != nil {
			impls[len(impls)-1].Attrs = attrs
			changed++
		}
	}
	for _, r := range news {
		im := r.im
		im.Attrs = append([]attr.Pair(nil), im.Attrs...)
		attr.SortPairs(im.Attrs)
		impls = append(impls, im)
		changed++
	}
	return impls, changed
}

// take splits off the front of the sorted xs the run that c reports
// equal to its key (0), after dropping those that order before it (<0).
func take[T any](xs []T, c func(T) int) (run, rest []T) {
	for len(xs) > 0 && c(xs[0]) < 0 {
		xs = xs[1:]
	}
	n := 0
	for n < len(xs) && c(xs[n]) == 0 {
		n++
	}
	return xs[:n], xs[n:]
}

// revisedAttrs returns a copy of attrs carrying the revised values, or
// nil when no revision changes a value. attrs and revs are both sorted
// by attribute ID.
func revisedAttrs(attrs []attr.Pair, revs []revision) []attr.Pair {
	var out []attr.Pair
	j := 0
	for _, r := range revs {
		for j < len(attrs) && attrs[j].ID < r.id {
			j++
		}
		if j == len(attrs) {
			break
		}
		if attrs[j].ID != r.id || attrs[j].Value == r.v {
			continue
		}
		if out == nil {
			out = append([]attr.Pair(nil), attrs...)
		}
		out[j].Value = r.v
	}
	return out
}
