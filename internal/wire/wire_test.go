package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const goodReq = `{
  "client": "c1",
  "type": 1,
  "constraints": [
    {"id": 3, "value": 16, "weight": 0.5},
    {"id": 1, "value": 8, "weight": 0.5}
  ],
  "app": "radio",
  "priority": 5,
  "hold_us": 100
}`

func TestDecodeAllocRequestGood(t *testing.T) {
	req, err := DecodeAllocRequest(strings.NewReader(goodReq))
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "c1" || req.Type != 1 || req.App != "radio" || req.Priority != 5 || req.HoldUS != 100 {
		t.Fatalf("decoded %+v", req)
	}
	cr := req.Request()
	if cr.Type != 1 || len(cr.Constraints) != 2 {
		t.Fatalf("Request() = %+v", cr)
	}
	// NewRequest sorts by attribute ID; weights stay normalized.
	if cr.Constraints[0].ID != 1 || cr.Constraints[1].ID != 3 {
		t.Fatalf("constraints not sorted: %+v", cr.Constraints)
	}
	if w := cr.Constraints[0].Weight + cr.Constraints[1].Weight; w < 0.999 || w > 1.001 {
		t.Fatalf("weights sum to %v, want 1", w)
	}
}

func TestDecodeAllocRequestEqualWeightsWhenUnspecified(t *testing.T) {
	req, err := DecodeAllocRequest(strings.NewReader(
		`{"client":"c","type":1,"constraints":[{"id":1,"value":2},{"id":2,"value":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cr := req.Request()
	for i, c := range cr.Constraints {
		if c.Weight < 0.499 || c.Weight > 0.501 {
			t.Fatalf("constraint %d weight %v, want 0.5", i, c.Weight)
		}
	}
}

func TestDecodeAllocRequestRejections(t *testing.T) {
	cases := map[string]string{
		"empty body":        ``,
		"not json":          `{`,
		"null":              `null is trailing`,
		"unknown field":     `{"client":"c","type":1,"constraints":[{"id":1,"value":2}],"bogus":true}`,
		"trailing data":     `{"client":"c","type":1,"constraints":[{"id":1,"value":2}]} {"again":1}`,
		"missing client":    `{"type":1,"constraints":[{"id":1,"value":2}]}`,
		"no constraints":    `{"client":"c","type":1,"constraints":[]}`,
		"dup constraint":    `{"client":"c","type":1,"constraints":[{"id":1,"value":2},{"id":1,"value":3}]}`,
		"weight above one":  `{"client":"c","type":1,"constraints":[{"id":1,"value":2,"weight":1.5}]}`,
		"negative weight":   `{"client":"c","type":1,"constraints":[{"id":1,"value":2,"weight":-0.1}]}`,
		"negative priority": `{"client":"c","type":1,"constraints":[{"id":1,"value":2}],"priority":-1}`,
	}
	for name, body := range cases {
		got, err := DecodeAllocRequest(strings.NewReader(body))
		if err == nil {
			t.Errorf("%s: decoded %+v, want error", name, got)
			continue
		}
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: error %v does not wrap ErrBadRequest", name, err)
		}
		if got != nil {
			t.Errorf("%s: returned both a request and an error", name)
		}
	}
}

// TestDecodeReleaseRequestRejections pins that a release body must
// name its client and a task ID of 1 or more, like the retain and
// retire bodies name their client.
func TestDecodeReleaseRequestRejections(t *testing.T) {
	cases := map[string]string{
		"null":           `null`,
		"empty object":   `{}`,
		"negative task":  `{"task":-5}`,
		"missing client": `{"task":1}`,
		"missing task":   `{"client":"c1"}`,
		"zero task":      `{"client":"c1","task":0}`,
		"negative id":    `{"client":"c1","task":-5}`,
	}
	for name, body := range cases {
		if got, err := DecodeReleaseRequest(strings.NewReader(body)); got != nil || !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: decoded %+v, %v; want only an error wrapping ErrBadRequest", name, got, err)
		}
	}
	got, err := DecodeReleaseRequest(strings.NewReader(`{"client":"c1","task":7}`))
	if err != nil || got.Client != "c1" || got.Task != 7 {
		t.Errorf("good body = %+v, %v", got, err)
	}
}

func TestDecodeAllocRequestTooManyConstraints(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"client":"c","type":1,"constraints":[`)
	for i := 0; i <= MaxConstraints; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%d,"value":1}`, i)
	}
	sb.WriteString(`]}`)
	if _, err := DecodeAllocRequest(strings.NewReader(sb.String())); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized constraint list: %v, want ErrBadRequest", err)
	}
}

func validReport() *BenchReport {
	return &BenchReport{
		Version: BenchVersion, Scenario: "zipf", Mode: "lockstep",
		Seed: 42, Requests: 100, Clients: 8, RatePerSec: 500,
		OK: 90, Shed: 6, Rejected: 3, Failed: 1,
		BreakerTrip: 2, ThroughputRPS: 480.5, ShedRate: 0.06,
		LatencyUS:   BenchQuantiles{P50: 120, P95: 300, P99: 450, Max: 900},
		OutcomeHash: "fnv64a:deadbeef",
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBenchReport(&buf, validReport()); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *validReport() {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", back, validReport())
	}
}

func TestBenchReportValidateRejections(t *testing.T) {
	mutate := map[string]func(*BenchReport){
		"bad version":         func(b *BenchReport) { b.Version = 99 },
		"empty scenario":      func(b *BenchReport) { b.Scenario = "" },
		"bad mode":            func(b *BenchReport) { b.Mode = "closed" },
		"zero requests":       func(b *BenchReport) { b.Requests = 0 },
		"zero clients":        func(b *BenchReport) { b.Clients = 0 },
		"outcomes mismatch":   func(b *BenchReport) { b.OK-- },
		"negative outcome":    func(b *BenchReport) { b.Shed = -1; b.OK += 7 },
		"shed rate range":     func(b *BenchReport) { b.ShedRate = 1.5 },
		"quantile disorder":   func(b *BenchReport) { b.LatencyUS.P95 = 10 },
		"missing hash":        func(b *BenchReport) { b.OutcomeHash = "" },
		"negative throughput": func(b *BenchReport) { b.ThroughputRPS = -1 },
	}
	for name, fn := range mutate {
		b := validReport()
		fn(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, b)
		}
		var buf bytes.Buffer
		if err := EncodeBenchReport(&buf, b); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: Encode = %v, want ErrBadReport", name, err)
		}
	}
}

func TestDecodeBenchReportStrict(t *testing.T) {
	if _, err := DecodeBenchReport(strings.NewReader(`{"version":1,"bogus":true}`)); !errors.Is(err, ErrBadReport) {
		t.Fatalf("unknown field: %v, want ErrBadReport", err)
	}
}

const goodObserve = `{
  "client": "c1",
  "type": 2,
  "impl": 3,
  "measured": [
    {"id": 4, "value": 17},
    {"id": 1, "value": 9}
  ]
}`

func TestDecodeObserveRequestGood(t *testing.T) {
	req, err := DecodeObserveRequest(strings.NewReader(goodObserve))
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "c1" || req.Type != 2 || req.Impl != 3 || len(req.Measured) != 2 {
		t.Fatalf("decoded %+v", req)
	}
	o := req.Observation()
	if uint16(o.Type) != 2 || uint16(o.Impl) != 3 || len(o.Measured) != 2 {
		t.Fatalf("Observation() = %+v", o)
	}
	// Conversion preserves wire order and values verbatim.
	if uint16(o.Measured[0].ID) != 4 || o.Measured[0].Value != 17 {
		t.Fatalf("measured[0] = %+v", o.Measured[0])
	}
}

func TestDecodeObserveRequestRejections(t *testing.T) {
	cases := map[string]string{
		"empty body":      ``,
		"not json":        `{`,
		"unknown field":   `{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2}],"bogus":1}`,
		"trailing data":   `{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2}]} x`,
		"missing client":  `{"type":1,"impl":1,"measured":[{"id":1,"value":2}]}`,
		"missing impl":    `{"client":"c","type":1,"measured":[{"id":1,"value":2}]}`,
		"no measurements": `{"client":"c","type":1,"impl":1,"measured":[]}`,
		"dup measurement": `{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2},{"id":1,"value":3}]}`,
	}
	for name, body := range cases {
		got, err := DecodeObserveRequest(strings.NewReader(body))
		if err == nil {
			t.Errorf("%s: decoded %+v, want error", name, got)
			continue
		}
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: error %v does not wrap ErrBadRequest", name, err)
		}
	}
}

const goodRetain = `{
  "client": "c1",
  "type": 2,
  "name": "fir-v9",
  "target": "FPGA",
  "attrs": [
    {"id": 5, "value": 20},
    {"id": 2, "value": 11}
  ],
  "footprint": {"slices": 120, "brams": 2, "config_bytes": 4096},
  "at_epoch": 7
}`

func TestDecodeRetainRequestGood(t *testing.T) {
	req, err := DecodeRetainRequest(strings.NewReader(goodRetain))
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "c1" || req.Type != 2 || req.Impl != 0 || req.AtEpoch != 7 {
		t.Fatalf("decoded %+v", req)
	}
	im := req.Implementation()
	if im.Name != "fir-v9" || im.Target.String() != "FPGA" {
		t.Fatalf("Implementation() = %+v", im)
	}
	// Attributes come back sorted by ID, as the case-base builder needs.
	if len(im.Attrs) != 2 || im.Attrs[0].ID != 2 || im.Attrs[1].ID != 5 {
		t.Fatalf("attrs not sorted: %+v", im.Attrs)
	}
	if im.Foot.Slices != 120 || im.Foot.ConfigBytes != 4096 {
		t.Fatalf("footprint = %+v", im.Foot)
	}
}

func TestDecodeRetainRequestRejections(t *testing.T) {
	cases := map[string]string{
		"empty body":         ``,
		"unknown field":      `{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}],"bogus":1}`,
		"trailing data":      `{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}]} x`,
		"missing client":     `{"type":1,"target":"FPGA","attrs":[{"id":1,"value":2}]}`,
		"bad target":         `{"client":"c","type":1,"target":"ASIC","attrs":[{"id":1,"value":2}]}`,
		"missing target":     `{"client":"c","type":1,"attrs":[{"id":1,"value":2}]}`,
		"no attrs":           `{"client":"c","type":1,"target":"FPGA","attrs":[]}`,
		"dup attr":           `{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2},{"id":1,"value":3}]}`,
		"negative footprint": `{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}],"footprint":{"slices":-1}}`,
	}
	for name, body := range cases {
		got, err := DecodeRetainRequest(strings.NewReader(body))
		if err == nil {
			t.Errorf("%s: decoded %+v, want error", name, got)
			continue
		}
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: error %v does not wrap ErrBadRequest", name, err)
		}
	}
}

func TestDecodeRetireRequest(t *testing.T) {
	req, err := DecodeRetireRequest(strings.NewReader(
		`{"client":"c1","type":2,"impl":4,"at_epoch":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "c1" || req.Type != 2 || req.Impl != 4 || req.AtEpoch != 3 {
		t.Fatalf("decoded %+v", req)
	}
	cases := map[string]string{
		"empty body":     ``,
		"unknown field":  `{"client":"c","type":1,"impl":1,"bogus":1}`,
		"trailing data":  `{"client":"c","type":1,"impl":1} x`,
		"missing client": `{"type":1,"impl":1}`,
		"missing impl":   `{"client":"c","type":1}`,
	}
	for name, body := range cases {
		if _, err := DecodeRetireRequest(strings.NewReader(body)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want ErrBadRequest", name, err)
		}
	}
}

// TestDecodeRequestSizeAndTrailingData pins the strict decode every
// request body shares: a valid body padded with whitespace up to
// MaxRequestBytes still decodes, one more byte of padding, or trailing
// data past the limit, is refused, and trailing data after the object —
// a second object, a stray closing brace, junk — is refused at any size.
func TestDecodeRequestSizeAndTrailingData(t *testing.T) {
	decoders := map[string]struct {
		body   string
		decode func(string) error
	}{
		"alloc": {goodReq, func(b string) error { _, err := DecodeAllocRequest(strings.NewReader(b)); return err }},
		"observe": {goodObserve, func(b string) error {
			_, err := DecodeObserveRequest(strings.NewReader(b))
			return err
		}},
		"retain": {goodRetain, func(b string) error { _, err := DecodeRetainRequest(strings.NewReader(b)); return err }},
		"retire": {`{"client":"c1","type":2,"impl":4}`, func(b string) error {
			_, err := DecodeRetireRequest(strings.NewReader(b))
			return err
		}},
		"release": {`{"client":"c1","task":1}`, func(b string) error {
			_, err := DecodeReleaseRequest(strings.NewReader(b))
			return err
		}},
	}
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	for name, d := range decoders {
		if err := d.decode(pad(d.body, MaxRequestBytes)); err != nil {
			t.Errorf("%s: body of exactly MaxRequestBytes: %v", name, err)
		}
		for what, body := range map[string]string{
			"one byte over the limit":      pad(d.body, MaxRequestBytes+1),
			"trailing data past the limit": pad(d.body, MaxRequestBytes) + `garbage{"x":1}`,
			"a second object":              d.body + `{"x":1}`,
			"a stray closing brace":        d.body + `}`,
			"trailing junk":                d.body + `junk`,
		} {
			if err := d.decode(body); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s with %s: %v, want ErrBadRequest", name, what, err)
			}
		}
	}
}

func TestParseTarget(t *testing.T) {
	for _, name := range []string{"FPGA", "DSP", "GP-Proc"} {
		tgt, err := ParseTarget(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tgt.String() != name {
			t.Fatalf("ParseTarget(%q).String() = %q", name, tgt.String())
		}
	}
	if _, err := ParseTarget("asic"); err == nil {
		t.Fatal("accepted an unknown target")
	}
}
