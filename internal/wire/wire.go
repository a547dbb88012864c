// Package wire is the qosd HTTP/JSON wire format: the request body the
// daemon accepts, the response and error bodies it emits, and the
// BENCH_qosd_*.json report schema the qosload harness writes. It is a
// strict format — unknown fields, trailing garbage, and out-of-range
// values are all rejected with a typed error — because the daemon edge
// is the one place malformed bytes can enter an otherwise fully
// validated pipeline.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
)

// MaxRequestBytes bounds a request body read; every Decode*Request
// refuses anything longer. Generous for a request with a full
// constraint list, small enough that a hostile body cannot balloon.
const MaxRequestBytes = 1 << 16

// MaxConstraints bounds the constraint list length. The attribute
// universe is uint16, but no legitimate request constrains more than a
// handful of attributes.
const MaxConstraints = 64

// ErrBadRequest is the sentinel wrapped by every Decode*Request
// failure caused by body content (as opposed to transport I/O), so the
// daemon can map the whole class to one HTTP status.
var ErrBadRequest = errors.New("wire: invalid request")

// ConstraintJSON is one requested QoS attribute on the wire.
type ConstraintJSON struct {
	ID     uint16  `json:"id"`
	Value  uint16  `json:"value"`
	Weight float64 `json:"weight,omitempty"`
}

// AllocRequest is the body of POST /v1/retrieve and /v1/allocate. The
// allocate-only fields (App, Priority, HoldUS) are ignored by the
// retrieve endpoint.
type AllocRequest struct {
	// Client keys the admission rate limiter. Required.
	Client string `json:"client"`
	// Type is the requested function type.
	Type uint16 `json:"type"`
	// Constraints is the QoS attribute list. Required, deduplicated,
	// weights in [0,1]; the daemon normalizes weights before scoring.
	Constraints []ConstraintJSON `json:"constraints"`
	// App names the owning application for /v1/allocate.
	App string `json:"app,omitempty"`
	// Priority is the allocation base priority for /v1/allocate.
	Priority int `json:"priority,omitempty"`
	// HoldUS asks the daemon to auto-release the placed task after this
	// much sim time (0 = caller releases explicitly).
	HoldUS uint64 `json:"hold_us,omitempty"`
}

// decodeStrict reads one JSON object from r into v. A body longer than
// MaxRequestBytes, malformed JSON, unknown fields and any data after
// the object but whitespace all fail with an error wrapping
// ErrBadRequest. It reads at most MaxRequestBytes+1 bytes.
func decodeStrict(r io.Reader, v any) error {
	lr := &io.LimitedReader{R: r, N: MaxRequestBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); !errors.Is(tail, io.EOF) {
			err = errors.New("trailing data after request object")
		}
	}
	if lr.N == 0 {
		err = fmt.Errorf("body exceeds %d bytes", MaxRequestBytes)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// DecodeAllocRequest reads one strict AllocRequest from r: an over-long
// body, unknown fields, trailing data, and semantic violations (empty
// client, no or duplicate constraints, weights outside [0,1], negative
// priority) all fail with an error wrapping ErrBadRequest. On success
// the request is safe to convert with Request().
func DecodeAllocRequest(r io.Reader) (*AllocRequest, error) {
	var req AllocRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &req, nil
}

func (a *AllocRequest) validate() error {
	if a.Client == "" {
		return errors.New("missing client")
	}
	if len(a.Constraints) == 0 {
		return errors.New("no constraints")
	}
	if len(a.Constraints) > MaxConstraints {
		return fmt.Errorf("%d constraints exceeds the limit of %d", len(a.Constraints), MaxConstraints)
	}
	seen := make(map[uint16]bool, len(a.Constraints))
	for _, c := range a.Constraints {
		if seen[c.ID] {
			return fmt.Errorf("duplicate constraint on attribute %d", c.ID)
		}
		seen[c.ID] = true
		if c.Weight < 0 || c.Weight > 1 {
			return fmt.Errorf("constraint %d weight %v outside [0,1]", c.ID, c.Weight)
		}
	}
	if a.Priority < 0 {
		return fmt.Errorf("negative priority %d", a.Priority)
	}
	return nil
}

// Request converts a decoded request to the engine shape: constraints
// sorted by attribute ID, weights normalized to sum to 1 (equal
// weights when none were given).
func (a *AllocRequest) Request() casebase.Request {
	cs := make([]casebase.Constraint, 0, len(a.Constraints))
	for _, c := range a.Constraints {
		cs = append(cs, casebase.Constraint{
			ID: attr.ID(c.ID), Value: attr.Value(c.Value), Weight: c.Weight,
		})
	}
	return casebase.NewRequest(casebase.TypeID(a.Type), cs...).NormalizeWeights()
}

// RetrieveResponse is the body of a successful /v1/retrieve.
type RetrieveResponse struct {
	Type       uint16  `json:"type"`
	Impl       uint16  `json:"impl"`
	Target     string  `json:"target"`
	Name       string  `json:"name,omitempty"`
	Similarity float64 `json:"similarity"`
}

// AllocResponse is the body of a successful /v1/allocate.
type AllocResponse struct {
	Task       int     `json:"task"`
	Type       uint16  `json:"type"`
	Impl       uint16  `json:"impl"`
	Target     string  `json:"target"`
	Device     string  `json:"device"`
	Similarity float64 `json:"similarity"`
	ReadyAtUS  uint64  `json:"ready_at_us"`
	ViaToken   bool    `json:"via_token,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// ReleaseRequest is the body of POST /v1/release.
type ReleaseRequest struct {
	Client string `json:"client"`
	Task   int    `json:"task"`
}

// DecodeReleaseRequest reads one strict ReleaseRequest from r (same
// size bound, unknown-field and trailing-data discipline as
// DecodeAllocRequest). A missing client or a task below 1 fails with an
// error wrapping ErrBadRequest.
func DecodeReleaseRequest(r io.Reader) (*ReleaseRequest, error) {
	var req ReleaseRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if req.Client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	if req.Task < 1 {
		return nil, fmt.Errorf("%w: task %d is not a task ID", ErrBadRequest, req.Task)
	}
	return &req, nil
}

// --- Mutation endpoints (live case-base update, DESIGN.md §14) ---------

// MeasurementJSON is one observed or declared QoS attribute value on
// the wire (no weight — measurements are facts, not preferences).
type MeasurementJSON struct {
	ID    uint16 `json:"id"`
	Value uint16 `json:"value"`
}

// ObserveRequest is the body of POST /v1/observe: one run-time QoS
// measurement of a deployed variant, folded into the daemon's deferred
// net-commit layer.
type ObserveRequest struct {
	Client   string            `json:"client"`
	Type     uint16            `json:"type"`
	Impl     uint16            `json:"impl"`
	Measured []MeasurementJSON `json:"measured"`
}

// DecodeObserveRequest reads one strict ObserveRequest from r with the
// same discipline as DecodeAllocRequest: size-bounded body, unknown
// fields, trailing data and semantic violations all fail with an error
// wrapping ErrBadRequest.
func DecodeObserveRequest(r io.Reader) (*ObserveRequest, error) {
	var req ObserveRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &req, nil
}

func (o *ObserveRequest) validate() error {
	if o.Client == "" {
		return errors.New("missing client")
	}
	if o.Impl == 0 {
		return errors.New("missing impl")
	}
	if len(o.Measured) == 0 {
		return errors.New("no measurements")
	}
	if len(o.Measured) > MaxConstraints {
		return fmt.Errorf("%d measurements exceeds the limit of %d", len(o.Measured), MaxConstraints)
	}
	seen := make(map[uint16]bool, len(o.Measured))
	for _, m := range o.Measured {
		if seen[m.ID] {
			return fmt.Errorf("duplicate measurement of attribute %d", m.ID)
		}
		seen[m.ID] = true
	}
	return nil
}

// Observation converts a decoded request to the learn shape.
func (o *ObserveRequest) Observation() learn.Observation {
	ms := make([]attr.Pair, 0, len(o.Measured))
	for _, m := range o.Measured {
		ms = append(ms, attr.Pair{ID: attr.ID(m.ID), Value: attr.Value(m.Value)})
	}
	return learn.Observation{
		Type: casebase.TypeID(o.Type), Impl: casebase.ImplID(o.Impl), Measured: ms,
	}
}

// ObserveResponse is the body of a successful /v1/observe.
type ObserveResponse struct {
	Epoch       uint64 `json:"epoch"`        // epoch committed after the observation
	PendingRevs int64  `json:"pending_revs"` // LSB-visible revisions still pending
	PendingObs  int64  `json:"pending_obs"`  // observations still pending
}

// FootprintJSON is a resource footprint on the wire.
type FootprintJSON struct {
	Slices      int `json:"slices,omitempty"`
	BRAMs       int `json:"brams,omitempty"`
	Multipliers int `json:"multipliers,omitempty"`
	CPULoad     int `json:"cpu_load,omitempty"`
	MemBytes    int `json:"mem_bytes,omitempty"`
	PowerMW     int `json:"power_mw,omitempty"`
	ConfigBytes int `json:"config_bytes,omitempty"`
}

// Footprint converts to the casebase shape.
func (f FootprintJSON) Footprint() casebase.Footprint {
	return casebase.Footprint{
		Slices: f.Slices, BRAMs: f.BRAMs, Multipliers: f.Multipliers,
		CPULoad: f.CPULoad, MemBytes: f.MemBytes, PowerMW: f.PowerMW,
		ConfigBytes: f.ConfigBytes,
	}
}

// ParseTarget parses the conventional short target name emitted by
// casebase.Target.String ("FPGA", "DSP", "GP-Proc").
func ParseTarget(s string) (casebase.Target, error) {
	switch s {
	case "FPGA":
		return casebase.TargetFPGA, nil
	case "DSP":
		return casebase.TargetDSP, nil
	case "GP-Proc":
		return casebase.TargetGPP, nil
	}
	return 0, fmt.Errorf("unknown target %q (want FPGA, DSP or GP-Proc)", s)
}

// RetainRequest is the body of POST /v1/retain: a new implementation
// variant for the run-time repository, committed through the epoch
// snapshot pipeline.
type RetainRequest struct {
	Client string `json:"client"`
	Type   uint16 `json:"type"`
	// Impl 0 asks the daemon to assign the type's next free ID.
	Impl   uint16            `json:"impl,omitempty"`
	Name   string            `json:"name,omitempty"`
	Target string            `json:"target"`
	Attrs  []MeasurementJSON `json:"attrs"`
	Foot   FootprintJSON     `json:"footprint"`
	// AtEpoch optimistically conditions the commit on the committed
	// epoch (0 commits unconditionally); a mismatch fails with
	// CodeStaleEpoch.
	AtEpoch uint64 `json:"at_epoch,omitempty"`
}

// DecodeRetainRequest reads one strict RetainRequest from r (same
// discipline as DecodeAllocRequest).
func DecodeRetainRequest(r io.Reader) (*RetainRequest, error) {
	var req RetainRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &req, nil
}

func (rr *RetainRequest) validate() error {
	if rr.Client == "" {
		return errors.New("missing client")
	}
	if _, err := ParseTarget(rr.Target); err != nil {
		return err
	}
	if len(rr.Attrs) == 0 {
		return errors.New("no attributes")
	}
	if len(rr.Attrs) > MaxConstraints {
		return fmt.Errorf("%d attributes exceeds the limit of %d", len(rr.Attrs), MaxConstraints)
	}
	seen := make(map[uint16]bool, len(rr.Attrs))
	for _, a := range rr.Attrs {
		if seen[a.ID] {
			return fmt.Errorf("duplicate attribute %d", a.ID)
		}
		seen[a.ID] = true
	}
	f := rr.Foot
	for _, v := range []int{f.Slices, f.BRAMs, f.Multipliers, f.CPULoad, f.MemBytes, f.PowerMW, f.ConfigBytes} {
		if v < 0 {
			return errors.New("negative footprint field")
		}
	}
	return nil
}

// Implementation converts a decoded request to the casebase shape
// (attributes sorted by ID, as the builder requires).
func (rr *RetainRequest) Implementation() casebase.Implementation {
	t, _ := ParseTarget(rr.Target) // validated by decode
	attrs := make([]attr.Pair, 0, len(rr.Attrs))
	for _, a := range rr.Attrs {
		attrs = append(attrs, attr.Pair{ID: attr.ID(a.ID), Value: attr.Value(a.Value)})
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].ID < attrs[j].ID })
	return casebase.Implementation{
		ID: casebase.ImplID(rr.Impl), Name: rr.Name, Target: t,
		Attrs: attrs, Foot: rr.Foot.Footprint(),
	}
}

// RetainResponse is the body of a successful /v1/retain.
type RetainResponse struct {
	Type  uint16 `json:"type"`
	Impl  uint16 `json:"impl"`  // assigned ID
	Epoch uint64 `json:"epoch"` // epoch the variant is committed in
}

// RetireRequest is the body of POST /v1/retire.
type RetireRequest struct {
	Client  string `json:"client"`
	Type    uint16 `json:"type"`
	Impl    uint16 `json:"impl"`
	AtEpoch uint64 `json:"at_epoch,omitempty"` // see RetainRequest.AtEpoch
}

// DecodeRetireRequest reads one strict RetireRequest from r (same
// discipline as DecodeAllocRequest).
func DecodeRetireRequest(r io.Reader) (*RetireRequest, error) {
	var req RetireRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if req.Client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	if req.Impl == 0 {
		return nil, fmt.Errorf("%w: missing impl", ErrBadRequest)
	}
	return &req, nil
}

// RetireResponse is the body of a successful /v1/retire.
type RetireResponse struct {
	Type  uint16 `json:"type"`
	Impl  uint16 `json:"impl"`
	Epoch uint64 `json:"epoch"` // epoch the variant is gone from
}

// ErrorResponse is the body of every non-2xx qosd reply. Code is a
// stable machine-readable slug (see the Code* constants); RetryAfterUS
// carries the typed hint in sim microseconds when the error class has
// one (it also surfaces as an HTTP Retry-After header, rounded up to
// whole seconds).
type ErrorResponse struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	RetryAfterUS uint64 `json:"retry_after_us,omitempty"`
}

// Stable ErrorResponse.Code slugs.
const (
	CodeBadRequest  = "bad_request"  // 400: DecodeAllocRequest refused the body
	CodeNoMatch     = "no_match"     // 404: retrieval found no variant
	CodeNoFeasible  = "no_feasible"  // 409: allocation found no feasible placement
	CodeRateLimited = "rate_limited" // 429: client token bucket empty
	CodeOverload    = "overload"     // 429: shard queue full (serve.ErrOverload)
	CodeBreakerOpen = "breaker_open" // 503: shard circuit breaker open
	CodeDraining    = "draining"     // 503: daemon is draining for shutdown
	CodeDeadline    = "deadline"     // 504: request context expired in serve
	CodeInternal    = "internal"     // 500: anything unclassified
	CodeUnknownTask = "unknown_task" // 404: release of a task the runtime doesn't know
	// CodeBudgetExceeded (429) reports a tenant over its QoS class's
	// resource budget (admit.ErrBudgetExceeded); Retry-After is set only
	// for the bandwidth dimension, where waiting accrues headroom.
	CodeBudgetExceeded = "budget_exceeded"
	// CodeLearningOff (403) reports a mutation request to a daemon whose
	// case base is frozen (started without -learn).
	CodeLearningOff = "learning_off"
	// CodeStaleEpoch (409) reports a mutation conditioned on an epoch a
	// commit has since retired (wire at_epoch vs. committed epoch).
	CodeStaleEpoch = "stale_epoch"
)
