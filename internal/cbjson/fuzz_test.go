package cbjson

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"qosalloc/internal/casebase"
)

// FuzzDecodeCaseBase holds the scanner to referenceDecode, the
// encoding/json path it replaced plus its two added rules, on arbitrary
// input. Both must reach the same verdict; on success both case bases
// must encode to the same bytes, and the scanner must read those bytes
// back to a case base that encodes to them again; on failure both
// errors must wrap ErrBadDocument and neither decoder may hand back a
// case base. Seeds cover the valid paper document, each rejection
// class, and one input per rule the scanner must keep: case-folded and
// escaped keys, the long-s and Kelvin folds, invalid UTF-8, nulls,
// numbers that do not fit, repeated keys and trailing data.
func FuzzDecodeCaseBase(f *testing.F) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, cb); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`{"version": 99, "attributes": [], "types": []}`)
	f.Add(`{"version": 1, "attributes": [{"id":1,"name":"a","kind":"weird","lo":0,"hi":1}], "types": []}`)
	f.Add(`{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[{"id":1,"target":"asic","attributes":[]}]}]}`)
	f.Add(`{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":5,"hi":2}], "types": []}`)
	f.Add(`{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[{"id":1,"target":"gpp","attributes":[{"id":7,"value":0}]}]}]}`)
	for _, seed := range [][2]string{
		{`"version"`, `"VERSION"`},
		{`"version"`, `"\u0076\u0065rsion"`},
		{`"CPULoad"`, `"cpu\u004coad"`},
		{`"CPULoad"`, `"CPULoad":10,"\u017Flices"`}, // long s folds to S
		{`"kind"`, `"\u212Aind"`},                   // Kelvin sign folds to K
		{`"CPULoad"`, "\"\u017Flices\":1,\"CPULoad\""},
		{`"kind"`, "\"\u212Aind\""},
		{`"name":"t"`, "\"name\":\"t\xff\x80\""},
		{`"name":"a"`, `"name":"a\ud800\u00e9\t"`},
		{`"name":"a"`, `"name":null,"unit":null`},
		{`"target":"gpp"`, `"name":null,"target":"gpp"`},
		{`"footprint":{"CPULoad":10}`, `"footprint":null`},
		{`"lo":0`, `"lo":null,"symbols":null`},
		{`"lo":0,"hi":1`, `"lo":0,"hi":1,"symbols":["x",null]`},
		{`"id":1,"value":1`, `"id":1.5,"value":1`},
		{`"id":1,"value":1`, `"id":1e2,"value":1`},
		{`"id":1,"value":1`, `"id":-1,"value":1`},
		{`"id":1,"value":1`, `"id":65536,"value":1`},
		{`"id":1,"value":1`, `"id":1,"value":-0`},
		{`"CPULoad":10`, `"CPULoad":-10`},
		{`"CPULoad":10`, `"CPULoad":9223372036854775808`},
		{`"CPULoad":10`, `"CPULoad":-9223372036854775808`},
		{`"CPULoad":10`, `"CPULoad":1.0`},
		{`"version": 1`, `"version": 1, "Version": 1`},
		{`"target":"gpp"`, `"target":"gpp","Target":"gpp"`},
	} {
		f.Add(strings.Replace(minimalDoc, seed[0], seed[1], 1))
	}
	f.Add(minimalDoc)
	f.Add(minimalDoc + " \r\n\t")
	f.Add(minimalDoc + " garbage")
	f.Add(minimalDoc + minimalDoc)
	f.Add(`[]`)
	f.Add(` null `)

	f.Fuzz(func(t *testing.T, doc string) {
		got, err := Decode(strings.NewReader(doc))
		want, wantErr := referenceDecode([]byte(doc))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdicts differ: scanner %v, reference %v", err, wantErr)
		}
		if err != nil {
			if got != nil || want != nil {
				t.Fatalf("a decoder returned both a case base and an error: %v / %v", err, wantErr)
			}
			if !errors.Is(err, ErrBadDocument) {
				t.Fatalf("content error does not wrap ErrBadDocument: %v", err)
			}
			if !errors.Is(wantErr, ErrBadDocument) {
				t.Fatalf("reference content error does not wrap ErrBadDocument: %v", wantErr)
			}
			return
		}
		var a, b bytes.Buffer
		if err := Encode(&a, got); err != nil {
			t.Fatalf("encode scanner result: %v", err)
		}
		if err := Encode(&b, want); err != nil {
			t.Fatalf("encode reference result: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("case bases differ:\nscanner:\n%s\nreference:\n%s", a.Bytes(), b.Bytes())
		}
		again, err := Decode(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of encoded case base: %v\n%s", err, a.Bytes())
		}
		var c bytes.Buffer
		if err := Encode(&c, again); err != nil {
			t.Fatalf("encode re-decoded case base: %v", err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("round trip changed the case base:\nfirst:\n%s\nsecond:\n%s", a.Bytes(), c.Bytes())
		}
	})
}
