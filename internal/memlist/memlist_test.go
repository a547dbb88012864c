package memlist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/workload"
)

// The readers below invert the image encoders. No program reads a
// request or supplemental image back, so they live here, as the
// references the round-trip and corruption tests check the encoders
// against.

// FromBytes rebuilds an image from its little-endian serialization.
func FromBytes(b []byte) (*Image, error) {
	if len(b)%2 != 0 {
		return nil, fmt.Errorf("memlist: odd byte count %d", len(b))
	}
	im := &Image{Words: make([]uint16, len(b)/2)}
	for i := range im.Words {
		im.Words[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return im, nil
}

// DecodedConstraint is one request-list block read back from an image.
type DecodedConstraint struct {
	ID     uint16
	Value  uint16
	Weight fixed.Q15
}

// DecodedRequest is a request list read back from an image.
type DecodedRequest struct {
	Type        uint16
	Constraints []DecodedConstraint
}

// DecodeRequest parses a request image, validating layout invariants.
// It enforces exactly the domain EncodeRequest emits: attribute IDs in
// [1, 0xFFFE] (0xFFFF is reserved, 0 is the terminator), strictly
// ascending blocks, and an explicit in-bounds EndMarker — a truncated
// image (e.g. untrusted bytes via FromBytes) fails loudly instead of
// decoding "successfully" off the zero-padded bus that Image.At models.
func DecodeRequest(im *Image) (DecodedRequest, error) {
	var out DecodedRequest
	if len(im.Words) < 2 {
		return out, fmt.Errorf("memlist: request image too short (%d words)", len(im.Words))
	}
	out.Type = im.Words[0]
	if out.Type == 0 || out.Type == 0xFFFF {
		return out, fmt.Errorf("memlist: invalid function type %d", out.Type)
	}
	a := 1
	prev := uint16(0)
	for {
		if a >= len(im.Words) {
			return out, fmt.Errorf("memlist: request image missing terminator (ends at word %d)", a)
		}
		id := im.Words[a]
		if id == EndMarker {
			break
		}
		if id == 0xFFFF {
			return out, fmt.Errorf("memlist: reserved attribute ID 0xFFFF at word %d", a)
		}
		if a+2 >= len(im.Words) {
			return out, fmt.Errorf("memlist: truncated constraint block at word %d", a)
		}
		if id <= prev {
			return out, fmt.Errorf("memlist: constraint IDs not ascending at word %d", a)
		}
		prev = id
		out.Constraints = append(out.Constraints, DecodedConstraint{
			ID: id, Value: im.Words[a+1], Weight: fixed.Q15(im.Words[a+2]),
		})
		a += 3
	}
	return out, nil
}

// SupplementalEntry is one block of the supplemental list.
type SupplementalEntry struct {
	ID     uint16
	Lo, Hi uint16
	Recip  fixed.UQ16
}

// DecodeSupplemental parses a supplemental image. Like DecodeRequest it
// enforces the encoder's domain: IDs in [1, 0xFFFE], strictly ascending
// blocks, and an explicit in-bounds EndMarker.
func DecodeSupplemental(im *Image) ([]SupplementalEntry, error) {
	var out []SupplementalEntry
	a := 0
	prev := uint16(0)
	for {
		if a >= len(im.Words) {
			return nil, fmt.Errorf("memlist: supplemental image missing terminator (ends at word %d)", a)
		}
		id := im.Words[a]
		if id == EndMarker {
			break
		}
		if id == 0xFFFF {
			return nil, fmt.Errorf("memlist: reserved attribute ID 0xFFFF at word %d", a)
		}
		if a+3 >= len(im.Words) {
			return nil, fmt.Errorf("memlist: truncated supplemental block at word %d", a)
		}
		if id <= prev {
			return nil, fmt.Errorf("memlist: supplemental IDs not ascending at word %d", a)
		}
		prev = id
		out = append(out, SupplementalEntry{
			ID: id, Lo: im.Words[a+1], Hi: im.Words[a+2], Recip: fixed.UQ16(im.Words[a+3]),
		})
		a += 4
	}
	return out, nil
}

func TestEncodeRequestLayout(t *testing.T) {
	im, err := EncodeRequest(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 left, word for word: type, then (ID, value, weight)
	// blocks sorted by ID, then the NULL terminator.
	if len(im.Words) != RequestWords(3) {
		t.Fatalf("words = %d, want %d", len(im.Words), RequestWords(3))
	}
	third := uint16(fixed.EqualWeights(3)[1])
	first := uint16(fixed.EqualWeights(3)[0])
	want := []uint16{
		1,            // function type: FIR equalizer
		1, 16, first, // bitwidth = 16
		3, 1, third, // output mode = stereo
		4, 40, third, // sample rate = 40
		EndMarker,
	}
	for i, w := range want {
		if im.Words[i] != w {
			t.Errorf("word %d = %d, want %d", i, im.Words[i], w)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := casebase.PaperRequest()
	im, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRequest(im)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Type != uint16(req.Type) {
		t.Errorf("type = %d", dec.Type)
	}
	if len(dec.Constraints) != len(req.Constraints) {
		t.Fatalf("constraints = %d", len(dec.Constraints))
	}
	for i, c := range req.Constraints {
		d := dec.Constraints[i]
		if d.ID != uint16(c.ID) || d.Value != uint16(c.Value) {
			t.Errorf("constraint %d = %+v", i, d)
		}
		if math.Abs(d.Weight.Float()-c.Weight) > 1e-4 {
			t.Errorf("weight %d = %v, want %v", i, d.Weight.Float(), c.Weight)
		}
	}
}

func TestEncodeRequestRejectsBadInput(t *testing.T) {
	if _, err := EncodeRequest(casebase.Request{Type: 0}); err == nil {
		t.Error("type 0 must be rejected")
	}
	bad := casebase.Request{Type: 1, Constraints: []casebase.Constraint{
		{ID: 0, Value: 1, Weight: 1},
	}}
	if _, err := EncodeRequest(bad); err == nil {
		t.Error("attribute ID 0 must be rejected")
	}
	unsorted := casebase.Request{Type: 1, Constraints: []casebase.Constraint{
		{ID: 4, Value: 1, Weight: 0.5}, {ID: 1, Value: 1, Weight: 0.5},
	}}
	if _, err := EncodeRequest(unsorted); err == nil {
		t.Error("unsorted constraints must be rejected")
	}
}

func TestTableThreeRequestBytes(t *testing.T) {
	// Table 3: "Attributes per Request: 10 (worst case)" →
	// "Memory consumption of request: 64 Bytes".
	if got := RequestWords(10) * 2; got != 64 {
		t.Errorf("request bytes at 10 attrs = %d, want 64 (Table 3)", got)
	}
}

func TestSupplementalRoundTrip(t *testing.T) {
	reg := casebase.PaperRegistry()
	im := EncodeSupplemental(reg)
	if len(im.Words) != SupplementalWords(4) {
		t.Fatalf("words = %d, want %d", len(im.Words), SupplementalWords(4))
	}
	entries, err := DecodeSupplemental(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Spot-check the sample-rate block: ID 4, bounds [8, 44],
	// reciprocal of 37.
	e := entries[3]
	if e.ID != 4 || e.Lo != 8 || e.Hi != 44 {
		t.Errorf("entry = %+v", e)
	}
	if e.Recip != fixed.Recip(36) {
		t.Errorf("recip = %v, want %v", e.Recip, fixed.Recip(36))
	}
}

func TestTreeRoundTrip(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	im, err := EncodeTree(cb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTree(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != cb.NumTypes() {
		t.Fatalf("decoded %d types, want %d", len(dec), cb.NumTypes())
	}
	for _, dt := range dec {
		ft, ok := cb.Type(casebase.TypeID(dt.ID))
		if !ok {
			t.Fatalf("decoded unknown type %d", dt.ID)
		}
		if len(dt.Impls) != len(ft.Impls) {
			t.Fatalf("type %d: decoded %d impls, want %d", dt.ID, len(dt.Impls), len(ft.Impls))
		}
		for j, di := range dt.Impls {
			im := &ft.Impls[j]
			if di.ID != uint16(im.ID) {
				t.Errorf("type %d impl %d: ID %d", dt.ID, j, di.ID)
			}
			if len(di.Attrs) != len(im.Attrs) {
				t.Fatalf("impl %d: %d attrs, want %d", di.ID, len(di.Attrs), len(im.Attrs))
			}
			for k, da := range di.Attrs {
				if da.ID != uint16(im.Attrs[k].ID) || da.Value != uint16(im.Attrs[k].Value) {
					t.Errorf("impl %d attr %d = %+v", di.ID, k, da)
				}
			}
		}
	}
}

func TestTreeLevelZeroLayout(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	im, _ := EncodeTree(cb)
	// Level 0 (fig. 5): (type ID, pointer) pairs then the terminator.
	if im.Words[0] != 1 {
		t.Errorf("word 0 = %d, want type ID 1", im.Words[0])
	}
	if im.Words[2] != 2 {
		t.Errorf("word 2 = %d, want type ID 2", im.Words[2])
	}
	if im.Words[4] != EndMarker {
		t.Errorf("word 4 = %d, want terminator", im.Words[4])
	}
	// The first impl-list pointer lands right after level 0.
	if got := int(im.Words[1]); got != 5 {
		t.Errorf("impl list pointer = %d, want 5", got)
	}
}

func TestTreeWordsMatchesEncoder(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	im, _ := EncodeTree(cb)
	// The paper tree is ragged (different attr counts), so compare
	// against a sum of the closed form per shape.
	want := 2*cb.NumTypes() + 1
	for _, ft := range cb.Types() {
		want += 2*len(ft.Impls) + 1
		for _, imp := range ft.Impls {
			want += 2*len(imp.Attrs) + 1
		}
	}
	if len(im.Words) != want {
		t.Errorf("encoded %d words, closed form %d", len(im.Words), want)
	}
}

func TestTableThreeTreeCapacity(t *testing.T) {
	// Table 3's capacity: 15 types × 10 implementations × 10
	// attributes, 16-bit words. The paper states "about 4.5 kB"; the
	// fully faithful fig. 5 layout with per-list terminators and
	// 2-word entries needs 6992 bytes — same order, and the closed
	// form must match exactly what the encoder emits (checked by
	// construction below at a smaller shape).
	w := TreeWords(15, 10, 10)
	if w != 3496 {
		t.Errorf("TreeWords(15,10,10) = %d, want 3496", w)
	}
	if w*2 != 6992 {
		t.Errorf("bytes = %d", w*2)
	}
	rep := Report(15, 10, 10, 10, 10)
	if rep.TreeBytes != 6992 || rep.RequestBytes != 64 {
		t.Errorf("report = %+v", rep)
	}
	if rep.SupplementalWords != SupplementalWords(10) {
		t.Errorf("supplemental words = %d", rep.SupplementalWords)
	}
}

func TestImageBytesRoundTrip(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	im, _ := EncodeTree(cb)
	b := im.Bytes()
	back, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Words) != len(im.Words) {
		t.Fatalf("round trip lost words")
	}
	for i := range im.Words {
		if back.Words[i] != im.Words[i] {
			t.Fatalf("word %d differs", i)
		}
	}
	if !bytes.Equal(b, back.Bytes()) {
		t.Error("byte round trip differs")
	}
	if _, err := FromBytes([]byte{1}); err == nil {
		t.Error("odd byte count must error")
	}
}

func TestImageAtOutOfRange(t *testing.T) {
	im := &Image{Words: []uint16{5}}
	if im.At(-1) != EndMarker || im.At(1) != EndMarker {
		t.Error("out-of-range reads must return EndMarker")
	}
	if im.At(0) != 5 {
		t.Error("in-range read broken")
	}
}

func TestDecodeRejectsCorruptImages(t *testing.T) {
	// Truncated request block.
	if _, err := DecodeRequest(&Image{Words: []uint16{1, 4, 16}}); err == nil {
		t.Error("truncated request must error")
	}
	// Non-ascending request IDs.
	bad := &Image{Words: []uint16{1, 4, 16, 0x2AAA, 2, 1, 0x2AAA, EndMarker}}
	if _, err := DecodeRequest(bad); err == nil {
		t.Error("descending request IDs must error")
	}
	// Type 0 request.
	if _, err := DecodeRequest(&Image{Words: []uint16{0, EndMarker}}); err == nil {
		t.Error("type 0 must error")
	}
	// Tree with a pointer outside the image.
	tb := &Image{Words: []uint16{1, 999, EndMarker}}
	if _, err := DecodeTree(tb); err == nil {
		t.Error("wild pointer must error")
	}
	// Tree with backwards pointer.
	tb2 := &Image{Words: []uint16{1, 0, EndMarker}}
	if _, err := DecodeTree(tb2); err == nil {
		t.Error("backwards pointer must error")
	}
	// Supplemental with non-ascending IDs.
	sb := &Image{Words: []uint16{4, 0, 1, 9, 2, 0, 1, 9, EndMarker}}
	if _, err := DecodeSupplemental(sb); err == nil {
		t.Error("descending supplemental IDs must error")
	}
	// Truncated supplemental.
	if _, err := DecodeSupplemental(&Image{Words: []uint16{4, 0, 1}}); err == nil {
		t.Error("truncated supplemental must error")
	}
}

// TestDecodeRejectsReservedIDs pins the decoder half of the ID-domain
// contract: EncodeRequest rejects the reserved attribute ID 0xFFFF, and
// the decoders must enforce the same [1, 0xFFFE] domain — for request
// and supplemental (and tree) images alike — instead of accepting words
// the encoder could never have emitted.
func TestDecodeRejectsReservedIDs(t *testing.T) {
	// Request with the reserved attribute ID 0xFFFF.
	req := &Image{Words: []uint16{1, 0xFFFF, 16, 0x2AAA, EndMarker}}
	if _, err := DecodeRequest(req); err == nil {
		t.Error("request attribute ID 0xFFFF must be rejected")
	}
	// Supplemental with the reserved attribute ID 0xFFFF.
	supp := &Image{Words: []uint16{0xFFFF, 0, 1, 9, EndMarker}}
	if _, err := DecodeSupplemental(supp); err == nil {
		t.Error("supplemental attribute ID 0xFFFF must be rejected")
	}
	// Tree with reserved type / impl / attr IDs.
	if _, err := DecodeTree(&Image{Words: []uint16{0xFFFF, 2, EndMarker}}); err == nil {
		t.Error("tree type ID 0xFFFF must be rejected")
	}
	if _, err := DecodeTree(&Image{Words: []uint16{1, 3, EndMarker, 0xFFFF, 6, EndMarker, EndMarker}}); err == nil {
		t.Error("tree impl ID 0xFFFF must be rejected")
	}
	if _, err := DecodeTree(&Image{Words: []uint16{1, 3, EndMarker, 5, 6, EndMarker, 0xFFFF, 7, EndMarker}}); err == nil {
		t.Error("tree attribute ID 0xFFFF must be rejected")
	}
}

// TestDecodeRequiresExplicitTerminator pins the truncation contract:
// images that simply run out of words where the terminator belongs must
// fail to decode, even though Image.At would read the missing word as
// 0x0000 off the zero-padded bus. Untrusted input via FromBytes relies
// on this failing loudly.
func TestDecodeRequiresExplicitTerminator(t *testing.T) {
	// Complete constraint block, missing trailing EndMarker.
	req := &Image{Words: []uint16{1, 4, 16, 0x2AAA}}
	if _, err := DecodeRequest(req); err == nil {
		t.Error("request image without terminator must error")
	}
	// Complete supplemental block, missing trailing EndMarker.
	supp := &Image{Words: []uint16{4, 0, 1, 9}}
	if _, err := DecodeSupplemental(supp); err == nil {
		t.Error("supplemental image without terminator must error")
	}
	// Empty supplemental image: not even the terminator.
	if _, err := DecodeSupplemental(&Image{}); err == nil {
		t.Error("empty supplemental image must error")
	}
	// Tree whose attribute list runs off the end without terminating.
	tree := &Image{Words: []uint16{1, 3, EndMarker, 5, 6, EndMarker, 2, 7}}
	if _, err := DecodeTree(tree); err == nil {
		t.Error("tree image without attr-list terminator must error")
	}
	// The truncation must be detected via serialized round trips too:
	// chop the last word (the terminator) off a valid request image.
	im, err := EncodeRequest(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	chopped, err := FromBytes(im.Bytes()[:len(im.Bytes())-2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(chopped); err == nil {
		t.Error("request truncated through FromBytes must error")
	}
}

// TestTreeRoundTripProperty: for arbitrary generated case-base shapes,
// Encode∘Decode is the identity on the hierarchy.
func TestTreeRoundTripProperty(t *testing.T) {
	f := func(seed int64, t8, i8, a8 uint8) bool {
		spec := workload.CaseBaseSpec{
			Types:        1 + int(t8%6),
			ImplsPerType: 1 + int(i8%8),
			AttrsPerImpl: 1 + int(a8%8),
			AttrUniverse: 10,
			Seed:         seed,
		}
		cb, _, err := workload.GenCaseBase(spec)
		if err != nil {
			return false
		}
		img, err := EncodeTree(cb)
		if err != nil {
			return false
		}
		dec, err := DecodeTree(img)
		if err != nil {
			return false
		}
		if len(dec) != cb.NumTypes() {
			return false
		}
		for _, dt := range dec {
			ft, ok := cb.Type(casebase.TypeID(dt.ID))
			if !ok || len(dt.Impls) != len(ft.Impls) {
				return false
			}
			for j, di := range dt.Impls {
				im := &ft.Impls[j]
				if di.ID != uint16(im.ID) || len(di.Attrs) != len(im.Attrs) {
					return false
				}
				for k, da := range di.Attrs {
					if da.ID != uint16(im.Attrs[k].ID) || da.Value != uint16(im.Attrs[k].Value) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRequestRoundTripProperty mirrors the tree property for request
// images over random constraint sets.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(tid uint16, ids []uint16) bool {
		if tid == 0 || tid == 0xFFFF {
			tid = 1
		}
		seen := map[uint16]bool{}
		var cs []casebase.Constraint
		for _, id := range ids {
			if id == 0 || id == 0xFFFF || seen[id] {
				continue
			}
			seen[id] = true
			cs = append(cs, casebase.Constraint{
				ID: attr.ID(id), Value: attr.Value(id ^ 0x5A5A), Weight: 0.5,
			})
		}
		req := casebase.NewRequest(casebase.TypeID(tid), cs...).EqualWeights()
		img, err := EncodeRequest(req)
		if err != nil {
			return false
		}
		dec, err := DecodeRequest(img)
		if err != nil {
			return false
		}
		if dec.Type != uint16(req.Type) || len(dec.Constraints) != len(req.Constraints) {
			return false
		}
		for i, c := range req.Constraints {
			if dec.Constraints[i].ID != uint16(c.ID) || dec.Constraints[i].Value != uint16(c.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
