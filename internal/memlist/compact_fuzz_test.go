package memlist

import (
	"testing"

	"qosalloc/internal/workload"
)

// FuzzDecodeCompact asserts the compacted decoder's contract on
// arbitrary bytes, mirroring wire.FuzzDecodeAllocRequest: it either
// returns a fully validated CompactCaseBase or an error — never a
// panic, never a half-validated structure. Because DecodeCompact is
// exact-length and re-encoding is deterministic, every accepted input
// must also re-encode to byte-identical output (decode∘encode = id on
// the accepted set).
func FuzzDecodeCompact(f *testing.F) {
	// Seed with a real encoded case base plus each rejection corner.
	cb, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 3, ImplsPerType: 2, AttrsPerImpl: 3, AttrUniverse: 5, Seed: 7,
	})
	if err != nil {
		f.Fatal(err)
	}
	cc, err := CompactFromCaseBase(cb)
	if err != nil {
		f.Fatal(err)
	}
	im, err := cc.EncodeCompact()
	if err != nil {
		f.Fatal(err)
	}
	good := im.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-2])               // truncated terminator
	f.Add(append([]byte(nil), good...)[:8]) // header only
	f.Add([]byte{})
	f.Add([]byte{0x16, 0xCB}) // magic alone
	f.Add([]byte{0x16, 0xCB, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	mutated := append([]byte(nil), good...)
	mutated[12] = 0xFF
	mutated[13] = 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := FromBytes(b)
		if err != nil {
			return // odd byte count, not a decoder concern
		}
		dec, err := DecodeCompact(img)
		if err != nil {
			if dec != nil {
				t.Fatalf("returned both a structure and an error: %v", err)
			}
			return
		}
		re, err := dec.EncodeCompact()
		if err != nil {
			t.Fatalf("accepted structure fails to re-encode: %v", err)
		}
		if len(re.Words) != len(img.Words) {
			t.Fatalf("re-encoded to %d words from %d", len(re.Words), len(img.Words))
		}
		for i := range re.Words {
			if re.Words[i] != img.Words[i] {
				t.Fatalf("re-encoded word %d = %#04x, input %#04x", i, re.Words[i], img.Words[i])
			}
		}
	})
}
