package learn

import (
	"fmt"
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
	revised  map[implKey]map[attr.ID]attr.Value
	retained map[casebase.TypeID][]casebase.Implementation
	retired  map[implKey]bool
}

// NewBuilder returns an empty builder over the committed base.
func NewBuilder(base *casebase.CaseBase) *Builder {
	return &Builder{
		base:     base,
		revised:  make(map[implKey]map[attr.ID]attr.Value),
		retained: make(map[casebase.TypeID][]casebase.Implementation),
		retired:  make(map[implKey]bool),
	}
}

// revise stages a quantized value for an attribute the case describes.
func (b *Builder) revise(k implKey, id attr.ID, v attr.Value) {
	if b.revised[k] == nil {
		b.revised[k] = make(map[attr.ID]attr.Value)
	}
	b.revised[k][id] = v
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
	touched := make(map[casebase.TypeID]bool)
	for k := range b.revised {
		touched[k.t] = true
	}
	for k := range b.retired {
		touched[k.t] = true
	}
	for t := range b.retained {
		touched[t] = true
	}
	var types []casebase.FunctionType
	changed := 0
	for _, ft := range b.base.Types() {
		if !touched[ft.ID] {
			continue
		}
		impls, n := b.apply(&ft)
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
// sorted copy of its own.
func (b *Builder) apply(ft *casebase.FunctionType) ([]casebase.Implementation, int) {
	news := b.retained[ft.ID]
	impls := make([]casebase.Implementation, 0, len(ft.Impls)+len(news))
	changed := 0
	for _, im := range ft.Impls {
		k := implKey{ft.ID, im.ID}
		if b.retired[k] {
			changed++
			continue
		}
		if attrs := revisedAttrs(im.Attrs, b.revised[k]); attrs != nil {
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

// revisedAttrs returns a copy of attrs carrying the revised values, or
// nil when no revision changes a value.
func revisedAttrs(attrs []attr.Pair, rev map[attr.ID]attr.Value) []attr.Pair {
	if len(rev) == 0 {
		return nil
	}
	var out []attr.Pair
	for j, p := range attrs {
		if v, ok := rev[p.ID]; ok && v != p.Value {
			if out == nil {
				out = append([]attr.Pair(nil), attrs...)
			}
			out[j].Value = v
		}
	}
	return out
}
