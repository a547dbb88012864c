// Package attr defines the attribute vocabulary of the QoS function
// allocation system.
//
// The paper (§2.2) describes cases as "sets of simple pairs of attributes
// and their values" whose values "can be of integer/real type, even
// discrete ordered sets of symbols are possible if they can be mapped onto
// integers". Every attribute carries a type ID; attributes of the same ID
// are comparable between a request and an implementation. The
// design-global upper/lower bounds of each attribute type — from which the
// maximum distance dmax of eq. (1) is derived — are kept in a Registry,
// the software analogue of the paper's "extra table ... generated at
// design time containing supplemental data on the attributes'
// design-global upper/lower value bounds" (fig. 4 right).
package attr

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// ID identifies an attribute type system-wide. The hardware encodes IDs
// as 16-bit words, so the valid range is [1, 0xFFFE]; 0 and 0xFFFF are
// reserved as list terminators in the memory image (package memlist).
type ID uint16

// Kind describes how an attribute's integer payload is to be interpreted.
// All kinds are ultimately mapped onto unsigned 16-bit integers for the
// hardware, as the paper requires.
type Kind uint8

const (
	// Numeric attributes are plain magnitudes (bitwidth, kSamples/s,
	// milliwatts, ...). Distance is Manhattan.
	Numeric Kind = iota
	// Ordinal attributes are discrete ordered symbol sets mapped onto
	// consecutive integers (mono=0 < stereo=1 < surround=2). Distance
	// is Manhattan on the mapped integers.
	Ordinal
	// Flag attributes are booleans or unordered mode selectors
	// (integer-mode=0 / float-mode=1). Distance is still Manhattan so
	// the hardware datapath is uniform, but sensible definitions keep
	// the mapped values adjacent.
	Flag
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Ordinal:
		return "ordinal"
	case Flag:
		return "flag"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an attribute payload as the 16-bit datapath sees it.
type Value uint16

// Pair is one attribute instance: a type ID plus a value. Requests and
// implementation descriptions are sets of Pairs.
type Pair struct {
	ID    ID
	Value Value
}

// Def declares an attribute type at design time.
type Def struct {
	ID   ID
	Name string // human-readable, e.g. "bitwidth"
	Unit string // e.g. "bits", "kS/s"; empty for symbolic kinds
	Kind Kind
	// Lo and Hi are the design-global value bounds over all
	// implementations in the library. dmax = Hi - Lo.
	Lo, Hi Value
	// Symbols maps ordinal levels to names, indexed by Value-Lo.
	// Optional; only for Ordinal/Flag kinds.
	Symbols []string
}

// DMax returns the design-global maximum distance of the attribute type,
// the max d(xi,xj) term of eq. (1).
func (d Def) DMax() uint16 {
	return uint16(d.Hi) - uint16(d.Lo)
}

// SymbolFor returns the symbol name for v, or a numeric rendering when no
// symbol table applies.
func (d Def) SymbolFor(v Value) string {
	i := int(v) - int(d.Lo)
	if i >= 0 && i < len(d.Symbols) {
		return d.Symbols[i]
	}
	if d.Unit != "" {
		return fmt.Sprintf("%d %s", v, d.Unit)
	}
	return fmt.Sprintf("%d", v)
}

// Registry is the design-time attribute dictionary: every attribute type
// the function library uses, with its global bounds. It is immutable
// after sealing; the run-time system only reads it.
//
// Like the paper's supplemental table, it is indexed by attribute ID:
// slot[id] is one more than the position of id's definition in defs
// (ascending by ID), and 0 for an undefined ID. slot reaches only up to
// the highest defined ID, so a lookup checks that bound first.
type Registry struct {
	defs   []Def
	slot   []uint16
	sealed bool
}

// NewRegistry returns an empty attribute registry.
func NewRegistry() *Registry { return &Registry{} }

// def returns the definition of id, nil when id is undefined.
func (r *Registry) def(id ID) *Def {
	if int(id) >= len(r.slot) {
		return nil
	}
	if s := r.slot[id]; s != 0 {
		return &r.defs[s-1]
	}
	return nil
}

// Define adds an attribute type. It returns an error for reserved or
// duplicate IDs, inverted bounds, or definitions added after Seal.
func (r *Registry) Define(d Def) error {
	if r.sealed {
		return fmt.Errorf("attr: registry is sealed; cannot define %q", d.Name)
	}
	if d.ID == 0 || d.ID == 0xFFFF {
		return fmt.Errorf("attr: ID %d is reserved as a list terminator", d.ID)
	}
	if r.def(d.ID) != nil {
		return fmt.Errorf("attr: duplicate definition of ID %d", d.ID)
	}
	if d.Hi < d.Lo {
		return fmt.Errorf("attr: %q has inverted bounds [%d, %d]", d.Name, d.Lo, d.Hi)
	}
	if len(d.Symbols) > 0 && len(d.Symbols) != int(d.Hi)-int(d.Lo)+1 {
		return fmt.Errorf("attr: %q has %d symbols for range [%d, %d]",
			d.Name, len(d.Symbols), d.Lo, d.Hi)
	}
	i, _ := slices.BinarySearchFunc(r.defs, d.ID, func(e Def, id ID) int { return cmp.Compare(e.ID, id) })
	r.defs = slices.Insert(r.defs, i, d)
	if n := int(d.ID) + 1; n > len(r.slot) {
		r.slot = append(r.slot, make([]uint16, n-len(r.slot))...)
	}
	for j := i; j < len(r.defs); j++ {
		r.slot[r.defs[j].ID] = uint16(j + 1)
	}
	return nil
}

// MustDefine is Define but panics on error; for design-time tables whose
// correctness is established by tests.
func (r *Registry) MustDefine(d Def) {
	if err := r.Define(d); err != nil {
		panic(err)
	}
}

// Seal freezes the registry. Sealing corresponds to the paper's
// design-time generation of the supplemental data table: after it, dmax
// values are constants the hardware may bake into reciprocals.
func (r *Registry) Seal() { r.sealed = true }

// Sealed reports whether the registry is frozen.
func (r *Registry) Sealed() bool { return r.sealed }

// Lookup returns the definition of id.
func (r *Registry) Lookup(id ID) (Def, bool) {
	if d := r.def(id); d != nil {
		return *d, true
	}
	return Def{}, false
}

// DMax returns the design-global maximum distance for id, or an error for
// unknown attribute types.
func (r *Registry) DMax(id ID) (uint16, error) {
	d := r.def(id)
	if d == nil {
		return 0, fmt.Errorf("attr: unknown attribute ID %d", id)
	}
	return d.DMax(), nil
}

// Len returns the number of defined attribute types.
func (r *Registry) Len() int { return len(r.defs) }

// ByName returns the definition whose Name matches exactly. Names are a
// human convenience (CLIs, JSON); IDs remain the canonical key, so
// duplicated names resolve to the lowest ID deterministically.
func (r *Registry) ByName(name string) (Def, bool) {
	for _, d := range r.defs {
		if d.Name == name {
			return d, true
		}
	}
	return Def{}, false
}

// ParseValue interprets s as a value of attribute d: a symbol name when
// the definition has a symbol table, otherwise a decimal/hex integer.
func (d Def) ParseValue(s string) (Value, error) {
	for i, sym := range d.Symbols {
		if sym == s {
			return d.Lo + Value(i), nil
		}
	}
	v, err := strconv.ParseUint(s, 0, 16)
	if err != nil {
		return 0, fmt.Errorf("attr: %q is neither a %s symbol nor a number", s, d.Name)
	}
	return Value(v), nil
}

// IDs returns all defined attribute IDs in ascending order — the order in
// which the supplemental list is emitted (fig. 4: "list entries presorted
// by ID").
func (r *Registry) IDs() []ID {
	ids := make([]ID, len(r.defs))
	for i := range r.defs {
		ids[i] = r.defs[i].ID
	}
	return ids
}

// Validate checks that a pair's value lies within its type's design-global
// bounds. Out-of-bounds values would make d exceed dmax and the fixed-point
// local similarity clamp to 0, so they are design errors worth surfacing.
func (r *Registry) Validate(p Pair) error {
	d := r.def(p.ID)
	if d == nil {
		return fmt.Errorf("attr: pair references unknown attribute ID %d", p.ID)
	}
	if p.Value < d.Lo || p.Value > d.Hi {
		return fmt.Errorf("attr: %q value %d outside design bounds [%d, %d]",
			d.Name, p.Value, d.Lo, d.Hi)
	}
	return nil
}

// SortPairs sorts pairs in-place by ascending ID, the pre-sorted order all
// of the paper's list structures require (§4.1: "the attribute-blocks have
// to be pre-sorted by their ID in ascending order ... as a consequence the
// effort for searching becomes linear"). slices.SortFunc, unlike
// sort.Slice, allocates neither a swapper nor a closure per call.
func SortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.ID, b.ID) })
}

// CheckSorted returns an error unless ps is strictly ascending by ID
// (duplicates are also rejected: one value per attribute type per case).
func CheckSorted(ps []Pair) error {
	for i := 1; i < len(ps); i++ {
		if ps[i].ID <= ps[i-1].ID {
			return fmt.Errorf("attr: pairs not strictly ascending at index %d (ID %d after %d)",
				i, ps[i].ID, ps[i-1].ID)
		}
	}
	return nil
}
