// Package casebase models the function implementation tree of the paper
// (fig. 3 / fig. 5): a hierarchy whose top level enumerates the offered
// basic function types and whose lower levels describe, per type, the
// available implementation variants with their QoS attribute sets.
//
// The case base is a design-time artifact: "such metrics which characterize
// a functionality on QoS-aspects have to be pre-defined by the designer as
// a set of attributes whose values are derived from simulations and tests
// of the function's model" (§3). At run time it is read-only for
// retrieval; dynamic update is the paper's future work and is supported
// here through CaseBase.Derive, which builds the next epoch from the
// types a self-learning layer changed and shares the rest.
package casebase

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"qosalloc/internal/attr"
)

// TypeID identifies a basic function type system-wide ("global
// function-ID", §3). 0 and 0xFFFF are reserved as list terminators.
type TypeID uint16

// ImplID identifies one implementation variant. The paper allows "a unique
// system-global or a local ID value"; we use values unique within their
// function type, which is what the memory image encodes.
type ImplID uint16

// Target names the execution resource class of an implementation variant,
// matching the paper's example targets (FPGA, DSP, general-purpose
// processor).
type Target uint8

const (
	// TargetFPGA marks a partial bitstream for a reconfigurable device.
	TargetFPGA Target = iota
	// TargetDSP marks a DSP binary.
	TargetDSP
	// TargetGPP marks a software task for a general-purpose processor
	// (including soft cores like the MicroBlaze).
	TargetGPP
)

// String returns the conventional short target name.
func (t Target) String() string {
	switch t {
	case TargetFPGA:
		return "FPGA"
	case TargetDSP:
		return "DSP"
	case TargetGPP:
		return "GP-Proc"
	default:
		return fmt.Sprintf("Target(%d)", uint8(t))
	}
}

// Footprint describes what an implementation consumes when instantiated.
// The retrieval step ignores it; the allocation manager uses it for the
// feasibility check against current system load (§2, §3). ConfigBytes is
// the size of the configuration data (CPU opcode / FPGA bitstream) held in
// the global function repository.
type Footprint struct {
	Slices      int // CLB slices on FPGA targets
	BRAMs       int // block RAMs on FPGA targets
	Multipliers int // dedicated multipliers on FPGA targets
	CPULoad     int // permille of a processor for DSP/GPP targets
	MemBytes    int // working memory for DSP/GPP targets
	PowerMW     int // estimated power consumption, milliwatts
	ConfigBytes int // bitstream/opcode size in the repository
}

// Implementation is one variant of a function type: a target, its QoS
// attribute set (pre-sorted by attribute ID) and its resource footprint.
type Implementation struct {
	ID     ImplID
	Name   string
	Target Target
	Attrs  []attr.Pair
	Foot   Footprint
}

// Attr returns the value of attribute id, with ok=false when the variant
// does not describe that attribute ("a missing attribute can be seen as
// unsatisfiable requirement", §3). It serves one-off lookups (learning,
// experiments, tests); retrieval reads the same answers from the type's
// attribute columns (FunctionType.Column).
func (im *Implementation) Attr(id attr.ID) (attr.Value, bool) {
	// Attrs is sorted; binary search keeps large attribute sets cheap.
	// This is sort.Search's bisection written out without the closure.
	lo, hi := 0, len(im.Attrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if im.Attrs[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(im.Attrs) && im.Attrs[lo].ID == id {
		return im.Attrs[lo].Value, true
	}
	return 0, false
}

// FunctionType is one node of the top-level list: a basic function type
// and its implementation variants, sorted by implementation ID.
//
// A FunctionType reached through a CaseBase also carries an attribute
// column index, built by Builder.Build and CaseBase.Derive: the §5
// block-compacted view of the type, one column per attribute ID so a
// retrieval walk reads each constrained attribute of every variant from
// one contiguous array instead of bisecting every variant's Attrs.
//
// A FunctionType reached through a CaseBase is immutable: epochs derived
// from one another (CaseBase.Derive) share unchanged types, their Impls
// arrays, their variants' Attrs arrays and their columns, so a write
// through any of them would change every epoch that holds it. The
// columns mirror Impls; a copy whose Impls are changed outside Derive
// keeps stale columns.
type FunctionType struct {
	ID    TypeID
	Name  string
	Impls []Implementation

	colIDs []attr.ID // attribute IDs with a column, ascending
	cells  []Cell    // column k is cells[k*len(Impls) : (k+1)*len(Impls)]
}

// Impl returns the variant with the given ID.
func (ft *FunctionType) Impl(id ImplID) (*Implementation, bool) {
	for i := range ft.Impls {
		if ft.Impls[i].ID == id {
			return &ft.Impls[i], true
		}
	}
	return nil, false
}

// Cell is one variant's entry in an attribute column: the value of the
// attribute and whether the variant describes it at all. A missing
// attribute reads as the zero Cell, just as Implementation.Attr reports
// it.
type Cell struct {
	Value attr.Value
	Found bool
}

// Column returns the attribute column of id: cell i answers
// Impls[i].Attr(id). It is nil when no variant of the type describes
// id. The column is shared and must not be written.
func (ft *FunctionType) Column(id attr.ID) []Cell {
	k, ok := slices.BinarySearch(ft.colIDs, id)
	if !ok {
		return nil
	}
	n := len(ft.Impls)
	return ft.cells[k*n : (k+1)*n : (k+1)*n]
}

// index builds ft's attribute columns from its validated variants
// without sorting: a pass over their pairs marks the IDs present in a
// slot table over the type's ID range, one scan up that range numbers
// the marked IDs in ascending order, and a second pass over the pairs
// drops every value into its column. The table lives on the stack for
// the usual narrow ranges, so the index costs two allocations.
func (ft *FunctionType) index() {
	ft.colIDs, ft.cells = nil, nil
	lo, hi := attr.ID(0xFFFF), attr.ID(0)
	for i := range ft.Impls {
		if as := ft.Impls[i].Attrs; len(as) > 0 {
			lo, hi = min(lo, as[0].ID), max(hi, as[len(as)-1].ID)
		}
	}
	if lo > hi {
		return
	}
	var buf [512]uint16
	var slot []uint16
	if span := int(hi-lo) + 1; span <= len(buf) {
		slot = buf[:span]
	} else {
		slot = make([]uint16, span)
	}
	n := 0
	for i := range ft.Impls {
		for _, p := range ft.Impls[i].Attrs {
			if s := &slot[p.ID-lo]; *s == 0 {
				*s = 1
				n++
			}
		}
	}
	ids := make([]attr.ID, 0, n)
	for j, mark := range slot {
		if mark != 0 {
			slot[j] = uint16(len(ids)) // from here on: the column number
			ids = append(ids, lo+attr.ID(j))
		}
	}
	rows := len(ft.Impls)
	cells := make([]Cell, n*rows)
	for i := range ft.Impls {
		for _, p := range ft.Impls[i].Attrs {
			cells[int(slot[p.ID-lo])*rows+i] = Cell{Value: p.Value, Found: true}
		}
	}
	ft.colIDs, ft.cells = ids, cells
}

// admit is the check a variant passes before joining a type under
// construction: its ID is not reserved and not yet taken.
func (ft *FunctionType) admit(id ImplID) error {
	if id == 0 || id == 0xFFFF {
		return fmt.Errorf("casebase: impl ID %d is reserved (type %d)", id, ft.ID)
	}
	if _, dup := ft.Impl(id); dup {
		return fmt.Errorf("casebase: duplicate impl %d in type %d", id, ft.ID)
	}
	return nil
}

// carries reports whether im, the i-th variant of a type derived from
// ft, is a variant of ft that still shares ft's attribute slice, i.e.
// data ft was validated with. It looks at ft's i-th variant first, where
// a commit that keeps the variant set finds it, and bisects otherwise.
// ft's variants must be sorted by ID.
func (ft *FunctionType) carries(im *Implementation, i int) bool {
	if i >= len(ft.Impls) || ft.Impls[i].ID != im.ID {
		lo, hi := 0, len(ft.Impls)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ft.Impls[m].ID < im.ID {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(ft.Impls) || ft.Impls[lo].ID != im.ID {
			return false
		}
		i = lo
	}
	return sameSlice(im.Attrs, ft.Impls[i].Attrs)
}

// sameSlice reports whether a and b are one attribute slice.
func sameSlice(a, b []attr.Pair) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// patch builds ft's attribute columns from base's when ft's validated
// variants match base's one to one — the same IDs in the same order,
// and every variant whose attribute slice is not base's naming the same
// attribute IDs as its base variant — and reports whether they did. A
// fold commit, which only moves values, always does: ft then shares
// base's column IDs and copies its cells, and only the values of the
// variants with a slice of their own are written. Any other shape
// (retained or retired variants, a variant that gained or lost an
// attribute) leaves ft as it is for index.
func (ft *FunctionType) patch(base *FunctionType) bool {
	if len(ft.Impls) != len(base.Impls) {
		return false
	}
	for i := range ft.Impls {
		a, b := &ft.Impls[i], &base.Impls[i]
		if a.ID != b.ID || len(a.Attrs) != len(b.Attrs) {
			return false
		}
		if sameSlice(a.Attrs, b.Attrs) {
			continue
		}
		for j := range a.Attrs {
			if a.Attrs[j].ID != b.Attrs[j].ID {
				return false
			}
		}
	}
	rows := len(ft.Impls)
	cells := slices.Clone(base.cells)
	for i := range ft.Impls {
		as := ft.Impls[i].Attrs
		if sameSlice(as, base.Impls[i].Attrs) {
			continue
		}
		k := 0 // both the pairs and the column IDs ascend: one merge
		for _, p := range as {
			for base.colIDs[k] != p.ID {
				k++
			}
			cells[k*rows+i].Value = p.Value
		}
	}
	ft.colIDs, ft.cells = base.colIDs, cells
	return true
}

// validate sorts ft's admitted variants by ID and appends what is wrong
// with the type: no variants at all (§3: "it should not happen that the
// desired type is not found"), attribute IDs that are not strictly
// ascending (one value per type), and pairs that reference an undefined
// attribute type or leave its design-global bounds. Variants that base
// (nil for none) carries are skipped: they passed these same checks when
// base was built, against the same sealed registry.
func (ft *FunctionType) validate(errs []error, reg *attr.Registry, base *FunctionType) []error {
	if len(ft.Impls) == 0 {
		errs = append(errs, fmt.Errorf("casebase: function type %d (%s) has no implementations", ft.ID, ft.Name))
	}
	byID := func(a, b Implementation) int { return cmp.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(ft.Impls, byID) {
		slices.SortFunc(ft.Impls, byID)
	}
	for i := range ft.Impls {
		im := &ft.Impls[i]
		if base != nil && base.carries(im, i) {
			continue
		}
		if err := attr.CheckSorted(im.Attrs); err != nil {
			errs = append(errs, fmt.Errorf("casebase: type %d impl %d: %w", ft.ID, im.ID, err))
		}
		for _, p := range im.Attrs {
			if err := reg.Validate(p); err != nil {
				errs = append(errs, fmt.Errorf("casebase: type %d impl %d: %w", ft.ID, im.ID, err))
			}
		}
	}
	return errs
}

// CaseBase is the complete, validated implementation tree together with
// the attribute registry that defines the design-global value bounds.
type CaseBase struct {
	registry *attr.Registry
	types    []FunctionType // sorted by TypeID
	// byID is the type index by TypeID: byID[id] is one more than id's
	// position in types, 0 for an undeclared type. It reaches only up
	// to the highest type ID.
	byID []uint16
}

// Registry returns the attribute registry the case base was built
// against.
func (cb *CaseBase) Registry() *attr.Registry { return cb.registry }

// Types returns the function types in ascending TypeID order. The tree
// is shared — between callers and, down to the attribute pairs, with the
// epochs derived from this one and the one it was derived from — so
// callers must never mutate it.
func (cb *CaseBase) Types() []FunctionType { return cb.types }

// Type returns the function type entry for id. Retrieval begins with this
// lookup ("as first step all function type entries have to be checked for
// finding the required type", §3).
func (cb *CaseBase) Type(id TypeID) (*FunctionType, bool) {
	if i := cb.slot(id); i >= 0 {
		return &cb.types[i], true
	}
	return nil, false
}

// slot returns id's position in cb.types, -1 for an undeclared type.
func (cb *CaseBase) slot(id TypeID) int {
	if int(id) >= len(cb.byID) {
		return -1
	}
	return int(cb.byID[id]) - 1
}

// Derive returns the case base that differs from cb only in the given
// types, each replacing cb's type of the same ID. It is the commit step
// of run-time learning: a commit names the few types it revises,
// retains into or retires from, and everything else is shared, not
// copied — cb's sealed registry, its type index (the set of types does
// not change), every type not replaced together with its attribute
// columns, and within a replaced type every variant whose attribute
// slice is still cb's. Only the replaced types get new columns, whatever
// columns their given structs carry: patched from the base type's when
// the variants match it one to one (FunctionType.patch), built afresh
// otherwise.
//
// types must be in strictly ascending ID order and name only types of
// cb. Each one's Impls lists its variants in the order Builder.AddImpl
// would receive them. Derive admits them as AddImpl does and validates
// the types as Builder.Build does, skipping only the variants it shares
// with cb, so it returns the same errors in the same order. Unlike
// AddImpl it does not sort attribute lists; an unsorted one is reported.
// Derive takes ownership of the Impls slices, which it filters and
// sorts in place.
func (cb *CaseBase) Derive(types []FunctionType) (*CaseBase, error) {
	next := &CaseBase{registry: cb.registry, types: slices.Clone(cb.types), byID: cb.byID}
	var admitErrs, errs []error
	for k := range types {
		ft := &types[k]
		i := cb.slot(ft.ID)
		if i < 0 {
			return nil, fmt.Errorf("casebase: Derive of undeclared type %d", ft.ID)
		}
		if k > 0 && ft.ID <= types[k-1].ID {
			return nil, fmt.Errorf("casebase: Derive types not in ascending order at type %d", ft.ID)
		}
		given := ft.Impls
		ft.Impls = given[:0]
		for j := range given {
			if err := ft.admit(given[j].ID); err != nil {
				admitErrs = append(admitErrs, err)
				continue
			}
			if n := len(ft.Impls); n != j { // a rejection came before: close the gap
				given[n] = given[j]
			}
			ft.Impls = given[:len(ft.Impls)+1]
		}
		errs = ft.validate(errs, cb.registry, &cb.types[i])
		next.types[i] = *ft
	}
	if errs = append(admitErrs, errs...); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for k := range types {
		i := cb.slot(types[k].ID)
		if ft := &next.types[i]; !ft.patch(&cb.types[i]) {
			ft.index()
		}
	}
	return next, nil
}

// NumTypes returns the number of basic function types offered.
func (cb *CaseBase) NumTypes() int { return len(cb.types) }

// NumImpls returns the total number of implementation variants.
func (cb *CaseBase) NumImpls() int {
	n := 0
	for i := range cb.types {
		n += len(cb.types[i].Impls)
	}
	return n
}

// Stats summarizes case-base shape; used for capacity planning against
// Table 3.
type Stats struct {
	Types        int
	Impls        int
	Attrs        int
	MaxImpls     int // max implementations within one type
	MaxAttrs     int // max attributes within one implementation
	AttrTypeUniv int // distinct attribute types referenced
}

// Stats computes summary statistics of the tree.
func (cb *CaseBase) Stats() Stats {
	s := Stats{Types: len(cb.types)}
	universe := map[attr.ID]bool{}
	for i := range cb.types {
		ft := &cb.types[i]
		s.Impls += len(ft.Impls)
		if len(ft.Impls) > s.MaxImpls {
			s.MaxImpls = len(ft.Impls)
		}
		for j := range ft.Impls {
			im := &ft.Impls[j]
			s.Attrs += len(im.Attrs)
			if len(im.Attrs) > s.MaxAttrs {
				s.MaxAttrs = len(im.Attrs)
			}
			for _, p := range im.Attrs {
				universe[p.ID] = true
			}
		}
	}
	s.AttrTypeUniv = len(universe)
	return s
}

// Builder accumulates function types and implementations and validates
// them into an immutable CaseBase.
type Builder struct {
	registry *attr.Registry
	types    map[TypeID]*FunctionType
	order    []TypeID
	errs     []error
}

// NewBuilder returns a Builder validating against reg. The registry
// should be sealed before Build; Build seals it otherwise.
func NewBuilder(reg *attr.Registry) *Builder {
	return &Builder{registry: reg, types: make(map[TypeID]*FunctionType)}
}

// AddType declares a function type. Duplicate or reserved IDs are
// recorded as errors reported by Build.
func (b *Builder) AddType(id TypeID, name string) *Builder {
	if id == 0 || id == 0xFFFF {
		b.errs = append(b.errs, fmt.Errorf("casebase: type ID %d is reserved", id))
		return b
	}
	if _, dup := b.types[id]; dup {
		b.errs = append(b.errs, fmt.Errorf("casebase: duplicate function type %d", id))
		return b
	}
	b.types[id] = &FunctionType{ID: id, Name: name}
	b.order = append(b.order, id)
	return b
}

// AddImpl attaches an implementation variant to a previously declared
// type. Attribute pairs are sorted by ID here; validation happens in
// Build.
func (b *Builder) AddImpl(t TypeID, im Implementation) *Builder {
	ft, ok := b.types[t]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("casebase: AddImpl for undeclared type %d", t))
		return b
	}
	if err := ft.admit(im.ID); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	im.Attrs = append([]attr.Pair(nil), im.Attrs...)
	attr.SortPairs(im.Attrs)
	ft.Impls = append(ft.Impls, im)
	return b
}

// Build validates everything and returns the immutable case base:
//   - every attribute pair references a defined attribute type and lies
//     within its design-global bounds;
//   - attribute lists are strictly ascending (one value per type);
//   - every function type offers at least one implementation (§3: "it
//     should not happen that the desired type is not found").
func (b *Builder) Build() (*CaseBase, error) {
	errs := append([]error(nil), b.errs...)
	cb := &CaseBase{registry: b.registry}
	ids := slices.Clone(b.order)
	slices.Sort(ids)
	if len(ids) > 0 {
		cb.byID = make([]uint16, int(ids[len(ids)-1])+1)
	}
	for _, id := range ids {
		ft := b.types[id]
		errs = ft.validate(errs, b.registry, nil)
		cb.types = append(cb.types, *ft)
		cb.byID[id] = uint16(len(cb.types))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for i := range cb.types {
		cb.types[i].index()
	}
	if !b.registry.Sealed() {
		b.registry.Seal()
	}
	return cb, nil
}
