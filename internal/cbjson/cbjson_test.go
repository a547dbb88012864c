package cbjson

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/workload"
)

func TestRoundTripPaperCaseBase(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, cb); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Structural equality via identical memory images — the strongest
	// cheap check.
	a, err := memlist.EncodeTree(cb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := memlist.EncodeTree(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Words) != len(b.Words) {
		t.Fatalf("tree sizes differ: %d vs %d", len(a.Words), len(b.Words))
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("tree word %d differs", i)
		}
	}
	sa := memlist.EncodeSupplemental(cb.Registry())
	sb := memlist.EncodeSupplemental(back.Registry())
	if len(sa.Words) != len(sb.Words) {
		t.Fatal("supplemental sizes differ")
	}
	// Retrieval equivalence.
	e1 := retrieval.NewEngine(cb, retrieval.Options{})
	e2 := retrieval.NewEngine(back, retrieval.Options{})
	r1, _ := e1.Retrieve(casebase.PaperRequest())
	r2, _ := e2.Retrieve(casebase.PaperRequest())
	if r1.Impl != r2.Impl || r1.Similarity != r2.Similarity {
		t.Errorf("retrieval differs after round trip: %+v vs %+v", r1, r2)
	}
	// Footprints survive.
	ft, _ := back.Type(casebase.TypeFIREqualizer)
	im, _ := ft.Impl(1)
	if im.Foot.Slices != 920 || im.Foot.ConfigBytes != 96*1024 {
		t.Errorf("footprint lost: %+v", im.Foot)
	}
	if im.Target != casebase.TargetFPGA {
		t.Errorf("target lost: %v", im.Target)
	}
}

func TestRoundTripGeneratedCaseBase(t *testing.T) {
	cb, _, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, cb); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTypes() != cb.NumTypes() || back.NumImpls() != cb.NumImpls() {
		t.Errorf("shape lost: %d/%d vs %d/%d",
			back.NumTypes(), back.NumImpls(), cb.NumTypes(), cb.NumImpls())
	}
}

// minimalDoc is the smallest document that decodes: one attribute, one
// type with one implementation.
const minimalDoc = `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[{"id":1,"target":"gpp","attributes":[{"id":1,"value":1}],"footprint":{"CPULoad":10}}]}]}`

func TestDecodeRejectsBadDocuments(t *testing.T) {
	if _, err := Decode(strings.NewReader(minimalDoc)); err != nil {
		t.Fatalf("minimal document: %v", err)
	}
	cases := map[string]string{
		"bad json":       `{`,
		"wrong version":  `{"version": 99, "attributes": [], "types": []}`,
		"unknown kind":   `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"weird","lo":0,"hi":1}], "types": []}`,
		"unknown target": `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[{"id":1,"target":"asic","attributes":[]}]}]}`,
		"unknown field":  `{"version": 1, "bogus": true, "attributes": [], "types": []}`,
		"empty type":     `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[]}]}`,
		"oob attr value": `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1}], "types": [{"id":1,"name":"t","implementations":[{"id":1,"target":"gpp","attributes":[{"id":1,"value":9}]}]}]}`,
		"dup attribute":  `{"version": 1, "attributes": [{"id":1,"name":"a","kind":"numeric","lo":0,"hi":1},{"id":1,"name":"b","kind":"numeric","lo":0,"hi":1}], "types": []}`,
		"trailing data":  minimalDoc + " garbage",
		"two documents":  minimalDoc + minimalDoc,
		// encoding/json would merge a repeated key's value into the
		// earlier one; a repeated key is an error at every level.
		"repeated top-level key": strings.Replace(minimalDoc, `"types": [`,
			`"types": [{"id":2,"name":"u","implementations":[{"id":1,"target":"gpp","attributes":[]}]}], "Types": [`, 1),
		"repeated implementation key": strings.Replace(minimalDoc, `"target":"gpp"`, `"target":"gpp","target":"dsp"`, 1),
		"repeated footprint key":      strings.Replace(minimalDoc, `"CPULoad":10`, `"CPULoad":10,"cpuload":20`, 1),
	}
	for name, doc := range cases {
		_, err := Decode(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s: decode should fail", name)
		} else if !errors.Is(err, ErrBadDocument) {
			t.Errorf("%s: error does not wrap ErrBadDocument: %v", name, err)
		}
	}
}

// A failing reader is an I/O error, not a content error.
func TestDecodeReadError(t *testing.T) {
	errRead := errors.New("disk gone")
	_, err := Decode(iotest.ErrReader(errRead))
	if !errors.Is(err, errRead) {
		t.Fatalf("read error lost: %v", err)
	}
	if errors.Is(err, ErrBadDocument) {
		t.Fatalf("read error claims to be a content error: %v", err)
	}
}

// The scanner's field tables must name the fields encoding/json would,
// in struct order, so that Encode's output decodes field for field.
func TestFieldTablesMatchStructs(t *testing.T) {
	for _, c := range []struct {
		v     any
		names []string
	}{
		{Document{}, documentFields},
		{AttrJSON{}, attributeFields},
		{TypeJSON{}, typeFields},
		{ImplJSON{}, implFields},
		{PairJSON{}, pairFields},
		{casebase.Footprint{}, footprintFields},
	} {
		typ := reflect.TypeOf(c.v)
		var want []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			want = append(want, name)
		}
		if !reflect.DeepEqual(c.names, want) {
			t.Errorf("%s: scanner reads %v, struct has %v", typ, c.names, want)
		}
	}
}

func TestEncodeIsStable(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	var a, b bytes.Buffer
	if err := Encode(&a, cb); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, cb); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("encoding must be deterministic")
	}
	if !strings.Contains(a.String(), `"version": 1`) {
		t.Error("version missing")
	}
}
