// Package memlist implements the linear-list memory representation of the
// paper's §4.1: "We decided to use linear lists which can be connected by
// reference pointers for creating complex tree structures. Each list
// contains several entries like IDs, values, pointers and is terminated
// by a dedicated NULL-entry. These lists can be easily mapped on linear
// organized RAM-blocks if all list elements use the same word length per
// entry (e.g. 16 or 32 bits)."
//
// Three images are defined, all streams of 16-bit words:
//
//	Request list (fig. 4 left):
//	    [ function type ID,
//	      { attribute ID, attribute value, attribute weight (Q15) }*,
//	      0 ]
//	Attribute-supplemental list (fig. 4 right):
//	    [ { attribute ID, lower bound, upper bound, maxrange-1 }*, 0 ]
//	    where maxrange-1 is the UQ16 reciprocal of (1+dmax), the
//	    pre-computed constant that lets the datapath multiply instead
//	    of divide.
//	Implementation tree (fig. 5), three concatenated levels:
//	    level 0:  [ { function type ID, pointer→impl list }*, 0 ]
//	    level 1:  per type: [ { impl ID, pointer→attr list }*, 0 ]
//	    level 2:  per impl: [ { attribute ID, attribute value }*, 0 ]
//	Pointers are absolute word addresses inside the tree image. All
//	attribute blocks are pre-sorted by ascending ID so the retrieval
//	scan never restarts from a list head (§4.1).
//
// The NULL terminator is the word 0x0000; IDs are defined on [1, 0xFFFE],
// and terminator checks happen only at block boundaries, so value or
// weight words that happen to be zero cannot truncate a list.
package memlist

import (
	"encoding/binary"
	"fmt"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
)

// EndMarker is the dedicated NULL entry terminating every local list.
const EndMarker uint16 = 0

// Image is a linear block of 16-bit words, the software stand-in for a
// BRAM content initialization.
type Image struct {
	Words []uint16
}

// Size returns the image size in bytes (16-bit words, Table 3 counts
// "16 bit-words each entry/pointer").
func (im *Image) Size() int { return 2 * len(im.Words) }

// At returns the word at address a, mimicking a synchronous RAM read.
// Out-of-range reads return the EndMarker, as an unconnected data bus
// would read on a zero-initialized BRAM.
func (im *Image) At(a int) uint16 {
	if a < 0 || a >= len(im.Words) {
		return EndMarker
	}
	return im.Words[a]
}

// Bytes serializes the image little-endian, two bytes per word.
func (im *Image) Bytes() []byte {
	b := make([]byte, 2*len(im.Words))
	for i, w := range im.Words {
		binary.LittleEndian.PutUint16(b[2*i:], w)
	}
	return b
}

// EncodeRequest lays out a request list (fig. 4 left). Weights are
// converted to Q15 with the same policy as the fixed-point engine.
func EncodeRequest(req casebase.Request) (*Image, error) {
	if req.Type == 0 || uint16(req.Type) == 0xFFFF {
		return nil, fmt.Errorf("memlist: reserved function type ID %d", req.Type)
	}
	ws := make([]float64, len(req.Constraints))
	for i, c := range req.Constraints {
		ws[i] = c.Weight
	}
	q := fixed.WeightsQ15(ws)
	im := &Image{Words: make([]uint16, 0, 2+3*len(req.Constraints))}
	im.Words = append(im.Words, uint16(req.Type))
	prev := attr.ID(0)
	for i, c := range req.Constraints {
		if c.ID == 0 || c.ID == 0xFFFF {
			return nil, fmt.Errorf("memlist: reserved attribute ID %d", c.ID)
		}
		if c.ID <= prev {
			return nil, fmt.Errorf("memlist: request constraints not strictly ascending at %d", c.ID)
		}
		prev = c.ID
		im.Words = append(im.Words, uint16(c.ID), uint16(c.Value), uint16(q[i]))
	}
	im.Words = append(im.Words, EndMarker)
	return im, nil
}

// RequestWords returns the word count of a request list with n
// constraints: type + 3n + terminator. Table 3's "memory consumption of
// request: 64 Bytes" is RequestWords(10) × 2 = 64.
func RequestWords(n int) int { return 1 + 3*n + 1 }

// EncodeSupplemental lays out the attribute-supplemental list (fig. 4
// right) from a registry: per attribute type its ID, design-global
// bounds and the pre-computed reciprocal of (1+dmax).
func EncodeSupplemental(reg *attr.Registry) *Image {
	ids := reg.IDs()
	im := &Image{Words: make([]uint16, 0, 4*len(ids)+1)}
	for _, id := range ids {
		d, _ := reg.Lookup(id)
		im.Words = append(im.Words,
			uint16(id), uint16(d.Lo), uint16(d.Hi), uint16(fixed.Recip(d.DMax())))
	}
	im.Words = append(im.Words, EndMarker)
	return im
}

// SupplementalWords returns the word count for n attribute types.
func SupplementalWords(n int) int { return 4*n + 1 }
