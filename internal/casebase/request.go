package casebase

import (
	"fmt"
	"sort"

	"qosalloc/internal/attr"
)

// Constraint is one requested QoS attribute with its weighting factor, the
// (ID, value, weight) triple of the request list structure (fig. 4 left).
// Weight is a float in [0, 1]; the retrieval engines normalize or convert
// to Q15 as needed. The paper's example uses equal weights w_i = 1/3.
type Constraint struct {
	ID     attr.ID
	Value  attr.Value
	Weight float64
}

// Request is a function request description (fig. 3): the desired basic
// function type plus a — possibly incomplete — list of constraining
// attributes. "The request's attribute-set does not have to be completely
// specified; incomplete subsets are possible as well which is a nice
// property of case-based retrieval" (§3).
type Request struct {
	Type        TypeID
	Constraints []Constraint
}

// NewRequest returns a request for function type t with the given
// constraints, sorted by attribute ID as the list layout requires.
func NewRequest(t TypeID, cs ...Constraint) Request {
	out := Request{Type: t, Constraints: append([]Constraint(nil), cs...)}
	sort.Slice(out.Constraints, func(i, j int) bool {
		return out.Constraints[i].ID < out.Constraints[j].ID
	})
	return out
}

// EqualWeights returns a copy of r with every constraint weighted 1/n.
func (r Request) EqualWeights() Request {
	out := Request{Type: r.Type, Constraints: append([]Constraint(nil), r.Constraints...)}
	if n := len(out.Constraints); n > 0 {
		w := 1.0 / float64(n)
		for i := range out.Constraints {
			out.Constraints[i].Weight = w
		}
	}
	return out
}

// NormalizeWeights returns a copy of r with weights rescaled to sum to 1,
// the eq. (2) side condition. Requests whose weights sum to zero get
// equal weights instead.
func (r Request) NormalizeWeights() Request {
	out := Request{Type: r.Type, Constraints: append([]Constraint(nil), r.Constraints...)}
	var sum float64
	for _, c := range out.Constraints {
		if c.Weight > 0 {
			sum += c.Weight
		}
	}
	if sum == 0 {
		return r.EqualWeights()
	}
	for i := range out.Constraints {
		if out.Constraints[i].Weight < 0 {
			out.Constraints[i].Weight = 0
		}
		out.Constraints[i].Weight /= sum
	}
	return out
}

// Validate checks the request against the registry and the case base:
// the function type must be offered ("the application's functional
// requirements should already be known at design time", §3), constraints
// must reference known attributes within bounds and be free of
// duplicates.
func (r Request) Validate(cb *CaseBase) error {
	if _, ok := cb.Type(r.Type); !ok {
		return fmt.Errorf("casebase: request for unknown function type %d", r.Type)
	}
	if len(r.Constraints) == 0 {
		return fmt.Errorf("casebase: request for type %d has no constraints", r.Type)
	}
	for i, c := range r.Constraints {
		for _, prev := range r.Constraints[:i] { // few constraints: a scan beats a map
			if prev.ID == c.ID {
				return fmt.Errorf("casebase: duplicate constraint on attribute %d", c.ID)
			}
		}
		if err := cb.Registry().Validate(attr.Pair{ID: c.ID, Value: c.Value}); err != nil {
			return err
		}
		if !(c.Weight >= 0 && c.Weight <= 1) { // NaN fails both compares
			return fmt.Errorf("casebase: constraint on attribute %d has weight %v outside [0,1]", c.ID, c.Weight)
		}
	}
	return nil
}

// Relax returns a copy of r with the constraint on id removed, the
// "repeat its request with rather relaxed constraints" path of §3. The
// remaining weights are renormalized. ok is false when id was not
// constrained.
func (r Request) Relax(id attr.ID) (Request, bool) {
	out := Request{Type: r.Type}
	found := false
	for _, c := range r.Constraints {
		if c.ID == id {
			found = true
			continue
		}
		out.Constraints = append(out.Constraints, c)
	}
	if !found {
		return r, false
	}
	return out.NormalizeWeights(), true
}
