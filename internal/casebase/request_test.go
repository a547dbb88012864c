package casebase

import (
	"math"
	"strings"
	"testing"
)

func TestPaperRequestShape(t *testing.T) {
	r := PaperRequest()
	if r.Type != TypeFIREqualizer {
		t.Errorf("type = %d", r.Type)
	}
	if len(r.Constraints) != 3 {
		t.Fatalf("constraints = %d, want 3", len(r.Constraints))
	}
	for _, c := range r.Constraints {
		if math.Abs(c.Weight-1.0/3.0) > 1e-12 {
			t.Errorf("weight = %v, want 1/3", c.Weight)
		}
	}
	// Fig. 3: AReq_1=16, AReq_3=1, AReq_4=40; sorted ascending.
	if r.Constraints[0].ID != AttrBitwidth || r.Constraints[0].Value != 16 {
		t.Errorf("c0 = %+v", r.Constraints[0])
	}
	if r.Constraints[1].ID != AttrOutputMode || r.Constraints[1].Value != 1 {
		t.Errorf("c1 = %+v", r.Constraints[1])
	}
	if r.Constraints[2].ID != AttrSampleRate || r.Constraints[2].Value != 40 {
		t.Errorf("c2 = %+v", r.Constraints[2])
	}
}

func TestNewRequestSorts(t *testing.T) {
	r := NewRequest(1,
		Constraint{ID: AttrSampleRate, Value: 40},
		Constraint{ID: AttrBitwidth, Value: 16},
	)
	if r.Constraints[0].ID != AttrBitwidth {
		t.Errorf("constraints not sorted: %v", r.Constraints)
	}
}

func TestNormalizeWeights(t *testing.T) {
	r := NewRequest(1,
		Constraint{ID: AttrBitwidth, Value: 16, Weight: 2},
		Constraint{ID: AttrSampleRate, Value: 40, Weight: 6},
	).NormalizeWeights()
	if math.Abs(r.Constraints[0].Weight-0.25) > 1e-12 ||
		math.Abs(r.Constraints[1].Weight-0.75) > 1e-12 {
		t.Errorf("normalized weights = %v", r.Constraints)
	}
}

func TestNormalizeWeightsZeroSum(t *testing.T) {
	r := NewRequest(1,
		Constraint{ID: AttrBitwidth, Value: 16},
		Constraint{ID: AttrSampleRate, Value: 40},
	).NormalizeWeights()
	for _, c := range r.Constraints {
		if math.Abs(c.Weight-0.5) > 1e-12 {
			t.Errorf("zero-sum fallback should give equal weights, got %v", r.Constraints)
		}
	}
}

func TestValidateRequest(t *testing.T) {
	cb, _ := PaperCaseBase()
	if err := PaperRequest().Validate(cb); err != nil {
		t.Errorf("paper request rejected: %v", err)
	}
	bad := NewRequest(77, Constraint{ID: AttrBitwidth, Value: 16, Weight: 1})
	if err := bad.Validate(cb); err == nil {
		t.Error("unknown type must fail validation")
	}
	empty := NewRequest(TypeFIREqualizer)
	if err := empty.Validate(cb); err == nil {
		t.Error("empty constraint set must fail validation")
	}
	dup := Request{Type: TypeFIREqualizer, Constraints: []Constraint{
		{ID: AttrBitwidth, Value: 16, Weight: 0.5},
		{ID: AttrBitwidth, Value: 8, Weight: 0.5},
	}}
	if err := dup.Validate(cb); err == nil {
		t.Error("duplicate constraint must fail validation")
	}
	oob := NewRequest(TypeFIREqualizer, Constraint{ID: AttrBitwidth, Value: 200, Weight: 1})
	if err := oob.Validate(cb); err == nil {
		t.Error("out-of-bounds value must fail validation")
	}
	badW := NewRequest(TypeFIREqualizer, Constraint{ID: AttrBitwidth, Value: 16, Weight: 1.5})
	if err := badW.Validate(cb); err == nil {
		t.Error("weight > 1 must fail validation")
	}
	nanW := PaperRequest()
	nanW.Constraints[0].Weight = math.NaN()
	if err := nanW.Validate(cb); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Errorf("NaN weight validated with %v, want the out-of-range error", err)
	}
}

func TestRelax(t *testing.T) {
	r := PaperRequest()
	relaxed, ok := r.Relax(AttrSampleRate)
	if !ok {
		t.Fatal("Relax should find the sample-rate constraint")
	}
	if len(relaxed.Constraints) != 2 {
		t.Fatalf("relaxed constraints = %d, want 2", len(relaxed.Constraints))
	}
	var sum float64
	for _, c := range relaxed.Constraints {
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("relaxed weights sum to %v, want 1", sum)
	}
	if _, ok := r.Relax(99); ok {
		t.Error("Relax of unconstrained attribute should report false")
	}
	// Original is untouched.
	if len(r.Constraints) != 3 {
		t.Error("Relax must not mutate the original request")
	}
}

func TestEqualWeightsEmpty(t *testing.T) {
	r := NewRequest(1).EqualWeights()
	if len(r.Constraints) != 0 {
		t.Error("empty request should stay empty")
	}
}
