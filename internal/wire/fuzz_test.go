package wire

import (
	"errors"
	"strings"
	"testing"
)

// FuzzDecodeAllocRequest asserts the daemon decoder's contract on
// arbitrary bytes, mirroring FuzzDecodeCaseBase: it either returns a
// fully validated request or an error wrapping ErrBadRequest — never a
// panic, never a half-validated request. Seeds cover the valid shape
// plus each rejection class so the fuzzer starts from interesting
// corners.
func FuzzDecodeAllocRequest(f *testing.F) {
	f.Add(goodReq)
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"client":"c","type":1,"constraints":[{"id":1,"value":2}]}`)
	f.Add(`{"client":"","type":1,"constraints":[{"id":1,"value":2}]}`)
	f.Add(`{"client":"c","type":1,"constraints":[]}`)
	f.Add(`{"client":"c","type":1,"constraints":[{"id":1,"value":2},{"id":1,"value":3}]}`)
	f.Add(`{"client":"c","type":1,"constraints":[{"id":1,"value":2,"weight":2}]}`)
	f.Add(`{"client":"c","type":65535,"constraints":[{"id":65535,"value":65535,"weight":1}],"priority":-1}`)
	f.Add(`{"client":"c","type":1,"constraints":[{"id":1,"value":2}],"unknown":1}`)
	f.Add(`{"client":"c","type":1,"constraints":[{"id":1,"value":2}]} trailing`)

	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeAllocRequest(strings.NewReader(body))
		if err != nil {
			if req != nil {
				t.Fatalf("returned both a request and an error: %v", err)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("content error does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		// A decoded request must satisfy the documented invariants and
		// convert cleanly to the engine shape.
		if req.Client == "" {
			t.Fatal("accepted a request with no client")
		}
		if n := len(req.Constraints); n == 0 || n > MaxConstraints {
			t.Fatalf("accepted %d constraints", n)
		}
		cr := req.Request()
		if len(cr.Constraints) != len(req.Constraints) {
			t.Fatalf("conversion changed constraint count: %d vs %d", len(cr.Constraints), len(req.Constraints))
		}
		var sum float64
		for i, c := range cr.Constraints {
			if i > 0 && cr.Constraints[i-1].ID > c.ID {
				t.Fatal("converted constraints not sorted by attribute ID")
			}
			if c.Weight < 0 || c.Weight > 1 {
				t.Fatalf("converted weight %v outside [0,1]", c.Weight)
			}
			sum += c.Weight
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("converted weights sum to %v, want 1", sum)
		}
	})
}

// FuzzDecodeObserveRequest asserts the mutation decoder's contract the
// same way: arbitrary bytes produce either a validated request or an
// error wrapping ErrBadRequest — never a panic, never both.
func FuzzDecodeObserveRequest(f *testing.F) {
	f.Add(goodObserve)
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2}]}`)
	f.Add(`{"client":"","type":1,"impl":1,"measured":[{"id":1,"value":2}]}`)
	f.Add(`{"client":"c","type":1,"impl":0,"measured":[{"id":1,"value":2}]}`)
	f.Add(`{"client":"c","type":1,"impl":1,"measured":[]}`)
	f.Add(`{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2},{"id":1,"value":3}]}`)
	f.Add(`{"client":"c","type":65535,"impl":65535,"measured":[{"id":65535,"value":65535}]}`)
	f.Add(`{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2}],"unknown":1}`)
	f.Add(`{"client":"c","type":1,"impl":1,"measured":[{"id":1,"value":2}]} trailing`)

	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeObserveRequest(strings.NewReader(body))
		if err != nil {
			if req != nil {
				t.Fatalf("returned both a request and an error: %v", err)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("content error does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		if req.Client == "" {
			t.Fatal("accepted a request with no client")
		}
		if req.Impl == 0 {
			t.Fatal("accepted a request with no impl")
		}
		if n := len(req.Measured); n == 0 || n > MaxConstraints {
			t.Fatalf("accepted %d measurements", n)
		}
		o := req.Observation()
		if len(o.Measured) != len(req.Measured) {
			t.Fatalf("conversion changed measurement count: %d vs %d", len(o.Measured), len(req.Measured))
		}
		ids := make(map[uint16]bool, len(req.Measured))
		for _, m := range req.Measured {
			if ids[m.ID] {
				t.Fatalf("accepted a duplicate measurement of attribute %d", m.ID)
			}
			ids[m.ID] = true
		}
	})
}

// FuzzDecodeMutationBodies asserts the decoder contract for the retain,
// retire and release bodies, feeding every input to all three: each
// decoder either returns a value that holds its invariants or an error
// wrapping ErrBadRequest — never a panic, never both. Seeds are the
// good bodies of each endpoint plus their rejection corners.
func FuzzDecodeMutationBodies(f *testing.F) {
	for _, seed := range []string{
		goodRetain,
		`{"client":"c1","type":2,"impl":4,"at_epoch":3}`,
		`{"client":"c1","task":1}`,
		``,
		`{`,
		`null`,
		`[]`,
		`{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}],"bogus":1}`,
		`{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}]} x`,
		`{"type":1,"target":"FPGA","attrs":[{"id":1,"value":2}]}`,
		`{"client":"c","type":1,"target":"ASIC","attrs":[{"id":1,"value":2}]}`,
		`{"client":"c","type":1,"target":"FPGA","attrs":[]}`,
		`{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2},{"id":1,"value":3}]}`,
		`{"client":"c","type":1,"target":"FPGA","attrs":[{"id":1,"value":2}],"footprint":{"slices":-1}}`,
		`{"client":"c","type":1,"impl":1,"bogus":1}`,
		`{"client":"c","type":1,"impl":1} x`,
		`{"type":1,"impl":1}`,
		`{"client":"c","type":1}`,
		`{"client":"c1","task":1} {}`,
		`{}`,
		`{"task":1}`,
		`{"client":"c1","task":-5}`,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body string) {
		retain, err := DecodeRetainRequest(strings.NewReader(body))
		if decoded(t, "retain", retain != nil, err) {
			if err := retain.validate(); err != nil {
				t.Fatalf("retain: accepted a request that fails validation: %v", err)
			}
		}
		retire, err := DecodeRetireRequest(strings.NewReader(body))
		if decoded(t, "retire", retire != nil, err) && (retire.Client == "" || retire.Impl == 0) {
			t.Fatalf("retire: accepted %+v without a client or an impl", retire)
		}
		release, err := DecodeReleaseRequest(strings.NewReader(body))
		if decoded(t, "release", release != nil, err) && (release.Client == "" || release.Task < 1) {
			t.Fatalf("release: accepted %+v without a client or a task of 1 or more", release)
		}
	})
}

// decoded checks the half of the decoder contract every body shares —
// a value or an error wrapping ErrBadRequest, never both, never
// neither — and reports whether the decoder returned a value.
func decoded(t *testing.T, name string, got bool, err error) bool {
	t.Helper()
	if err == nil {
		if !got {
			t.Fatalf("%s: returned neither a value nor an error", name)
		}
		return true
	}
	if got {
		t.Fatalf("%s: returned both a value and an error: %v", name, err)
	}
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("%s: content error does not wrap ErrBadRequest: %v", name, err)
	}
	return false
}
