package memlist

import (
	"fmt"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

func mustCompact(t *testing.T, cb *casebase.CaseBase) *CompactCaseBase {
	t.Helper()
	cc, err := CompactFromCaseBase(cb)
	if err != nil {
		t.Fatalf("CompactFromCaseBase: %v", err)
	}
	return cc
}

const (
	// compactMagic marks a compacted case-base image ("CB" over a
	// 16-bit bus).
	compactMagic uint16 = 0xCB16
	// compactVersion is the layout version.
	compactVersion uint16 = 1
)

// EncodeCompact serializes the compacted case base into the flat word
// image the compact.go header lays out. No program stores that image;
// TestCompactWordsClosedForm encodes it to check the closed-form
// footprint word for word.
func (cc *CompactCaseBase) EncodeCompact() (*Image, error) {
	if err := cc.check(); err != nil {
		return nil, err
	}
	im := &Image{Words: make([]uint16, 0, cc.Words())}
	im.Words = append(im.Words, compactMagic, compactVersion,
		uint16(len(cc.TypeIDs)), uint16(len(cc.ImplIDs)), uint16(len(cc.AttrIDs)), uint16(len(cc.SuppIDs)))
	im.Words = append(im.Words, cc.TypeIDs...)
	im.Words = append(im.Words, cc.ImplOff...)
	im.Words = append(im.Words, cc.ImplIDs...)
	im.Words = append(im.Words, cc.AttrOff...)
	im.Words = append(im.Words, cc.AttrIDs...)
	im.Words = append(im.Words, cc.AttrVals...)
	im.Words = append(im.Words, cc.SuppIDs...)
	im.Words = append(im.Words, cc.SuppLo...)
	im.Words = append(im.Words, cc.SuppHi...)
	im.Words = append(im.Words, cc.SuppRecip...)
	im.Words = append(im.Words, EndMarker)
	if len(im.Words) != cc.Words() {
		return nil, fmt.Errorf("memlist: internal error, emitted %d compact words, planned %d", len(im.Words), cc.Words())
	}
	return im, nil
}

// TestCompactWordsClosedForm checks the closed-form size predictions
// against the encoder, word for word, for the regular shapes Table 3
// prices.
func TestCompactWordsClosedForm(t *testing.T) {
	shapes := []workload.CaseBaseSpec{
		{Types: 1, ImplsPerType: 1, AttrsPerImpl: 1, AttrUniverse: 1, Seed: 1},
		{Types: 3, ImplsPerType: 2, AttrsPerImpl: 4, AttrUniverse: 4, Seed: 2},
		{Types: 15, ImplsPerType: 10, AttrsPerImpl: 10, AttrUniverse: 10, Seed: 3},
	}
	for _, spec := range shapes {
		cb, _, err := workload.GenCaseBase(spec)
		if err != nil {
			t.Fatal(err)
		}
		cc := mustCompact(t, cb)
		im, err := cc.EncodeCompact()
		if err != nil {
			t.Fatal(err)
		}
		want := CompactWords(spec.Types, spec.ImplsPerType, spec.AttrsPerImpl, spec.AttrUniverse)
		if len(im.Words) != want {
			t.Fatalf("%+v: encoded %d words, CompactWords predicts %d", spec, len(im.Words), want)
		}
	}
}

// TestCompactReportPaperScale records the Table 3 footprint delta at the
// paper's capacity point: the compacted layout must be strictly smaller
// than tree+supplemental because extents replace per-impl pointers and
// per-list terminators.
func TestCompactReportPaperScale(t *testing.T) {
	un, co := CompactReport(15, 10, 10, 10)
	if un != TreeWords(15, 10, 10)+SupplementalWords(10) {
		t.Fatalf("uncompacted = %d", un)
	}
	if co != CompactWords(15, 10, 10, 10) {
		t.Fatalf("compact = %d", co)
	}
	if co >= un {
		t.Fatalf("compact layout (%d words) not smaller than uncompacted (%d words)", co, un)
	}
	t.Logf("Table 3 delta at 15×10×10: uncompacted %d words, compact %d words, saved %d (%.1f%%)",
		un, co, un-co, 100*float64(un-co)/float64(un))
}

// validCompact is a small hand-checkable compacted structure that
// check() accepts: 2 types, 3 impls, 4 attribute pairs, 2 supplemental
// entries. Each rejection test corrupts one field of a fresh copy.
func validCompact() *CompactCaseBase {
	return &CompactCaseBase{
		TypeIDs:   []uint16{1, 4},
		ImplOff:   []uint16{0, 2, 3},
		ImplIDs:   []uint16{10, 11, 12},
		AttrOff:   []uint16{0, 2, 3, 4},
		AttrIDs:   []uint16{1, 2, 1, 2},
		AttrVals:  []uint16{7, 9, 8, 3},
		SuppIDs:   []uint16{1, 2},
		SuppLo:    []uint16{0, 0},
		SuppHi:    []uint16{100, 50},
		SuppRecip: []uint16{648, 1285},
	}
}

// compactMutation corrupts one field of a compacted structure.
type compactMutation struct {
	name   string
	mutate func(*CompactCaseBase)
}

// compactRejects applies each mutation to a fresh validCompact and
// fails the test for every one that check() accepts.
func compactRejects(t *testing.T, cases []compactMutation) {
	t.Helper()
	if err := validCompact().check(); err != nil {
		t.Fatalf("valid structure rejected: %v", err)
	}
	for _, tc := range cases {
		cc := validCompact()
		tc.mutate(cc)
		if err := cc.check(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDecodeCompactRejectsCorrupt covers the content corruptions a
// compacted image can carry: reserved, zero or out-of-order IDs and
// extents that do not start at 0, decrease or fail to close. check()
// guards every CompactFromCaseBase result against each of them. The
// image-framing cases (magic, version, length, terminator) went with
// the image decoder; no program reads a compacted image back.
func TestDecodeCompactRejectsCorrupt(t *testing.T) {
	compactRejects(t, []compactMutation{
		{"reserved type ID", func(cc *CompactCaseBase) { cc.TypeIDs[0] = 0xFFFF }},
		{"zero type ID", func(cc *CompactCaseBase) { cc.TypeIDs[0] = 0 }},
		{"type IDs not ascending", func(cc *CompactCaseBase) { cc.TypeIDs[1] = 1 }},
		{"impl extents nonzero start", func(cc *CompactCaseBase) { cc.ImplOff[0] = 1 }},
		{"impl extents decrease", func(cc *CompactCaseBase) { cc.ImplOff[1] = 5 }},
		{"impl extents open", func(cc *CompactCaseBase) { cc.ImplOff[2] = 2 }},
		{"reserved impl ID", func(cc *CompactCaseBase) { cc.ImplIDs[0] = 0xFFFF }},
		{"impl IDs not ascending", func(cc *CompactCaseBase) { cc.ImplIDs[1] = 10 }},
		{"attr extents open", func(cc *CompactCaseBase) { cc.AttrOff[3] = 3 }},
		{"reserved attr ID", func(cc *CompactCaseBase) { cc.AttrIDs[0] = 0xFFFF }},
		{"attr IDs not ascending", func(cc *CompactCaseBase) { cc.AttrIDs[1] = 1 }},
		{"reserved supp ID", func(cc *CompactCaseBase) { cc.SuppIDs[0] = 0xFFFF }},
		{"supp IDs not ascending", func(cc *CompactCaseBase) { cc.SuppIDs[1] = 1 }},
	})
}

// TestCompactBuilderRejectsMalformed covers the shape faults a builder
// bug could produce: parallel columns of different lengths and an
// extent table of the wrong length.
func TestCompactBuilderRejectsMalformed(t *testing.T) {
	compactRejects(t, []compactMutation{
		{"misaligned attr values", func(cc *CompactCaseBase) { cc.AttrVals = cc.AttrVals[:1] }},
		{"misaligned supplemental", func(cc *CompactCaseBase) { cc.SuppRecip = cc.SuppRecip[:1] }},
		{"extents wrong length", func(cc *CompactCaseBase) { cc.ImplOff = cc.ImplOff[:2] }},
	})
}
