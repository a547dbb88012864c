package cbjson

import (
	"bytes"
	"io"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

var benchSink *casebase.CaseBase

// BenchmarkDecodeCaseBase decodes the scan_large case-base shape (64
// types × 64 implementations × 16 of 32 attributes, about 6.7 MB) with
// the scanner and with the encoding/json path it replaced, so one run
// shows both.
func BenchmarkDecodeCaseBase(b *testing.B) {
	cb, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, cb); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	for _, bc := range []struct {
		name   string
		decode func(io.Reader) (*casebase.CaseBase, error)
	}{
		{"scanner", Decode},
		{"reference", jsonDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cb, err := bc.decode(bytes.NewReader(doc))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = cb
			}
		})
	}
}
