package learn

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	base     *casebase.CaseBase
	revised  []revision // in staging order until Build sorts them
	retained map[casebase.TypeID][]casebase.Implementation
	retired  map[implKey]bool
}

// NewBuilder returns an empty builder over the committed base.
func NewBuilder(base *casebase.CaseBase) *Builder {
	return &Builder{
		base:     base,
		retained: make(map[casebase.TypeID][]casebase.Implementation),
		retired:  make(map[implKey]bool),
	}
}

// revision is one staged attribute value of a variant.
type revision struct {
	k  implKey
	id attr.ID
	v  attr.Value
}

// revise stages a quantized value for an attribute the case describes.
// A later value for the same attribute replaces an earlier one.
func (b *Builder) revise(k implKey, id attr.ID, v attr.Value) {
	b.revised = append(b.revised, revision{k, id, v})
}

// sortRevisions orders the staged revisions by type, variant and
// attribute, keeping only the last value staged for each attribute.
func (b *Builder) sortRevisions() {
	key := func(x, y revision) int {
		return cmp.Or(cmp.Compare(x.k.t, y.k.t), cmp.Compare(x.k.i, y.k.i), cmp.Compare(x.id, y.id))
	}
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
		for _, r := range b.retained[t] {
			if r.ID == im.ID {
				return 0, fmt.Errorf("learn: impl %d already retained for type %d", im.ID, t)
			}
		}
	}
	b.retained[t] = append(b.retained[t], im)
	return im.ID, nil
}

func (b *Builder) nextFreeImplID(ft *casebase.FunctionType) casebase.ImplID {
	next := casebase.ImplID(1)
	for _, im := range ft.Impls {
		if im.ID >= next {
			next = im.ID + 1
		}
	}
	for _, im := range b.retained[ft.ID] {
		if im.ID >= next {
			next = im.ID + 1
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
	b.retired[implKey{t, id}] = true
	return nil
}

// Build emits the next epoch's CaseBase with every staged revision,
// retention and retirement applied, plus the count of implementation
// entries that differ from the base. Only the types a staged edit
// changes are rebuilt and validated (casebase.CaseBase.Derive); every
// other type, and every variant of a rebuilt type that no revision
// changed, is shared with the base rather than copied.
func (b *Builder) Build() (*casebase.CaseBase, int, error) {
	b.sortRevisions()
	touched := make(map[casebase.TypeID]bool)
	for k := range b.retired {
		touched[k.t] = true
	}
	for t := range b.retained {
		touched[t] = true
	}
	var types []casebase.FunctionType
	changed := 0
	revs := b.revised
	for _, ft := range b.base.Types() {
		var mine []revision
		mine, revs = take(revs, func(r revision) int { return cmp.Compare(r.k.t, ft.ID) })
		if len(mine) == 0 && !touched[ft.ID] {
			continue
		}
		impls, n := b.apply(&ft, mine)
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

// apply returns ft's variants with this commit's edits applied, in the
// order casebase.Builder.AddImpl would receive them — the surviving base
// variants in base order, then the retained ones by ID — and the number
// of entries that changed. A surviving variant keeps its attribute slice
// unless a revision changes one of its values; a retained variant gets a
// sorted copy of its own. revs are ft's sorted revisions; ft's variants
// are sorted by ID, so one merge pairs them up.
func (b *Builder) apply(ft *casebase.FunctionType, revs []revision) ([]casebase.Implementation, int) {
	news := b.retained[ft.ID]
	impls := make([]casebase.Implementation, 0, len(ft.Impls)+len(news))
	changed := 0
	for _, im := range ft.Impls {
		var mine []revision
		mine, revs = take(revs, func(r revision) int { return cmp.Compare(r.k.i, im.ID) })
		if b.retired[implKey{ft.ID, im.ID}] {
			changed++
			continue
		}
		if attrs := revisedAttrs(im.Attrs, mine); attrs != nil {
			im.Attrs = attrs
			changed++
		}
		impls = append(impls, im)
	}
	news = append([]casebase.Implementation(nil), news...)
	sort.Slice(news, func(i, j int) bool { return news[i].ID < news[j].ID })
	for _, im := range news {
		im.Attrs = append([]attr.Pair(nil), im.Attrs...)
		attr.SortPairs(im.Attrs)
		impls = append(impls, im)
		changed++
	}
	return impls, changed
}

// take splits off the front of the sorted revs the run that c reports
// equal to its key (0), after dropping those that order before it (<0).
func take(revs []revision, c func(revision) int) (run, rest []revision) {
	for len(revs) > 0 && c(revs[0]) < 0 {
		revs = revs[1:]
	}
	n := 0
	for n < len(revs) && c(revs[n]) == 0 {
		n++
	}
	return revs[:n], revs[n:]
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
