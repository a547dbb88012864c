package learn

import (
	"fmt"
	"sort"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

// Builder stages one commit over a committed case base: LSB-quantized
// attribute revisions (written by Delta.FoldInto), retained variants
// and retired IDs. It never mutates the committed base; Build emits a
// fresh, validated CaseBase. The caller swaps engines, regenerates
// memory images and invalidates bypass tokens — exactly the update
// protocol a dynamic BRAM reload would follow.
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

// Build emits a fresh, fully validated CaseBase with every staged
// revision, retention and retirement applied, plus the count of
// implementation entries that differ from the base.
func (b *Builder) Build() (*casebase.CaseBase, int, error) {
	cbb := casebase.NewBuilder(b.base.Registry())
	changed := 0
	for _, ft := range b.base.Types() {
		cbb.AddType(ft.ID, ft.Name)
		for i := range ft.Impls {
			im := ft.Impls[i]
			k := implKey{ft.ID, im.ID}
			if b.retired[k] {
				changed++
				continue
			}
			if rev, ok := b.revised[k]; ok {
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
		news := append([]casebase.Implementation(nil), b.retained[ft.ID]...)
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
