package memlist

import (
	"fmt"

	"qosalloc/internal/casebase"
)

// EncodeTree lays out the three-level implementation tree of fig. 5 as
// one linear block: the top-level function-type list at address 0,
// followed by the per-type implementation lists, followed by the
// per-implementation attribute lists. "All partial lists are generated at
// design time creating one big block of linear concatenated lists" (§4.1).
func EncodeTree(cb *casebase.CaseBase) (*Image, error) {
	types := cb.Types()

	// Pass 1: compute section addresses.
	level0Len := 2*len(types) + 1
	implListAddr := make([]int, len(types))
	a := level0Len
	for i := range types {
		implListAddr[i] = a
		a += 2*len(types[i].Impls) + 1
	}
	attrListAddr := make(map[[2]int]int) // (type idx, impl idx) → address
	for i := range types {
		for j := range types[i].Impls {
			attrListAddr[[2]int{i, j}] = a
			a += 2*len(types[i].Impls[j].Attrs) + 1
		}
	}
	total := a
	if total > 1<<16 {
		return nil, fmt.Errorf("memlist: tree needs %d words, exceeding the 16-bit address space", total)
	}

	// Pass 2: emit.
	im := &Image{Words: make([]uint16, 0, total)}
	for i := range types {
		im.Words = append(im.Words, uint16(types[i].ID), uint16(implListAddr[i]))
	}
	im.Words = append(im.Words, EndMarker)
	for i := range types {
		for j := range types[i].Impls {
			im.Words = append(im.Words,
				uint16(types[i].Impls[j].ID), uint16(attrListAddr[[2]int{i, j}]))
		}
		im.Words = append(im.Words, EndMarker)
	}
	for i := range types {
		for j := range types[i].Impls {
			for _, p := range types[i].Impls[j].Attrs {
				im.Words = append(im.Words, uint16(p.ID), uint16(p.Value))
			}
			im.Words = append(im.Words, EndMarker)
		}
	}
	if len(im.Words) != total {
		return nil, fmt.Errorf("memlist: internal error, emitted %d words, planned %d", len(im.Words), total)
	}
	return im, nil
}

// TreeWords predicts the tree image size in words from the case-base
// shape: per type 2 words + terminator at level 0 plus one terminator at
// the end of the type list; per implementation 2 words + its attribute
// list; per attribute 2 words. This closed form is checked against
// EncodeTree word-for-word in tests and drives the Table 3 experiment.
func TreeWords(types, implsPerType, attrsPerImpl int) int {
	level0 := 2*types + 1
	level1 := types * (2*implsPerType + 1)
	level2 := types * implsPerType * (2*attrsPerImpl + 1)
	return level0 + level1 + level2
}

// DecodedImpl is one implementation read back from a tree image.
type DecodedImpl struct {
	ID    uint16
	Attrs []DecodedAttr
}

// DecodedAttr is one attribute pair of a level-2 list.
type DecodedAttr struct {
	ID    uint16
	Value uint16
}

// DecodedType is one function type read back from a tree image.
type DecodedType struct {
	ID    uint16
	Impls []DecodedImpl
}

// DecodeTree parses a tree image back into its hierarchy, validating
// pointers and sort order. It is the verification inverse of EncodeTree
// and doubles as the reference reader for debugging hardware traces.
// Every local list must close with an explicit in-bounds EndMarker and
// every ID must lie in [1, 0xFFFE] — the domain EncodeTree emits — so a
// truncated or corrupt image never decodes by accident off the
// zero-padded bus semantics of Image.At.
//
//qosvet:keep the verification inverse of EncodeTree that memlist's round-trip and corruption tests and BenchmarkMemoryImageDecode read images back through
func DecodeTree(im *Image) ([]DecodedType, error) {
	var out []DecodedType
	a := 0
	prevType := uint16(0)
	for {
		if a >= len(im.Words) {
			return nil, fmt.Errorf("memlist: type list missing terminator (ends at word %d)", a)
		}
		tid := im.Words[a]
		if tid == EndMarker {
			break
		}
		if tid == 0xFFFF {
			return nil, fmt.Errorf("memlist: reserved type ID 0xFFFF at word %d", a)
		}
		if a+1 >= len(im.Words) {
			return nil, fmt.Errorf("memlist: truncated type entry at word %d", a)
		}
		if tid <= prevType {
			return nil, fmt.Errorf("memlist: type IDs not ascending at word %d", a)
		}
		prevType = tid
		implPtr := int(im.Words[a+1])
		if implPtr <= a || implPtr >= len(im.Words) {
			return nil, fmt.Errorf("memlist: type %d has invalid impl pointer %d", tid, implPtr)
		}
		dt := DecodedType{ID: tid}
		b := implPtr
		prevImpl := uint16(0)
		for {
			if b >= len(im.Words) {
				return nil, fmt.Errorf("memlist: impl list missing terminator (ends at word %d)", b)
			}
			iid := im.Words[b]
			if iid == EndMarker {
				break
			}
			if iid == 0xFFFF {
				return nil, fmt.Errorf("memlist: reserved impl ID 0xFFFF at word %d", b)
			}
			if b+1 >= len(im.Words) {
				return nil, fmt.Errorf("memlist: truncated impl entry at word %d", b)
			}
			if iid <= prevImpl {
				return nil, fmt.Errorf("memlist: impl IDs not ascending at word %d", b)
			}
			prevImpl = iid
			attrPtr := int(im.Words[b+1])
			if attrPtr <= b || attrPtr >= len(im.Words) {
				return nil, fmt.Errorf("memlist: impl %d has invalid attr pointer %d", iid, attrPtr)
			}
			di := DecodedImpl{ID: iid}
			c := attrPtr
			prevAttr := uint16(0)
			for {
				if c >= len(im.Words) {
					return nil, fmt.Errorf("memlist: attr list missing terminator (ends at word %d)", c)
				}
				aid := im.Words[c]
				if aid == EndMarker {
					break
				}
				if aid == 0xFFFF {
					return nil, fmt.Errorf("memlist: reserved attribute ID 0xFFFF at word %d", c)
				}
				if c+1 >= len(im.Words) {
					return nil, fmt.Errorf("memlist: truncated attr entry at word %d", c)
				}
				if aid <= prevAttr {
					return nil, fmt.Errorf("memlist: attr IDs not ascending at word %d", c)
				}
				prevAttr = aid
				di.Attrs = append(di.Attrs, DecodedAttr{ID: aid, Value: im.Words[c+1]})
				c += 2
			}
			dt.Impls = append(dt.Impls, di)
			b += 2
		}
		out = append(out, dt)
		a += 2
	}
	return out, nil
}

// MemoryReport summarizes a complete retrieval-unit memory configuration,
// the quantities Table 3 reports.
type MemoryReport struct {
	TreeWords         int
	TreeBytes         int
	SupplementalWords int
	SupplementalBytes int
	RequestWords      int
	RequestBytes      int
}

// Report computes the Table 3 memory figures for a capacity of the given
// shape (types × implsPerType × attrsPerImpl, requests with reqAttrs
// constraints, attrUniverse distinct attribute types in the supplemental
// list).
func Report(types, implsPerType, attrsPerImpl, reqAttrs, attrUniverse int) MemoryReport {
	tw := TreeWords(types, implsPerType, attrsPerImpl)
	sw := SupplementalWords(attrUniverse)
	rw := RequestWords(reqAttrs)
	return MemoryReport{
		TreeWords: tw, TreeBytes: 2 * tw,
		SupplementalWords: sw, SupplementalBytes: 2 * sw,
		RequestWords: rw, RequestBytes: 2 * rw,
	}
}
