// Package similarity implements the local similarity measures and global
// amalgamation functions of the paper's §2.2.
//
// The local measure of eq. (1) maps the Manhattan distance of two
// attribute values into [0, 1]:
//
//	s(xA, xB) = 1 - d(xA, xB) / (1 + max d)
//
// where max d is the design-global maximum distance of the attribute
// type. The global similarity of eq. (2) is the weighted sum of the local
// similarities ("amalgamation function"), monotonous in every argument
// with S(0,...,0)=0 and S(1,...,1)=1. The paper notes that "other
// approaches for similarity calculations are possible as well" and names
// the Mahalanobis distance as effective but computationally too large for
// hardware; this package provides the published measure plus the nearby
// alternatives so they can be compared in software.
package similarity

import (
	"fmt"
	"math"

	"qosalloc/internal/attr"
)

// Local computes the similarity of a requested value against an
// implementation value for one attribute type whose design-global maximum
// distance is dmax. Results are in [0, 1]. Retrieval calls it once per
// variant × constraint, in request order; it must depend on its
// arguments only.
type Local interface {
	Similarity(req, impl attr.Value, dmax uint16) float64
	Name() string
}

// Linear is eq. (1): 1 - |a-b| / (1+dmax). This is the measure the
// hardware implements.
type Linear struct{}

// Similarity implements Local.
func (Linear) Similarity(req, impl attr.Value, dmax uint16) float64 {
	d := dist(req, impl)
	// Clamp: when the actual distance exceeds 1+dmax (dmax understated,
	// or an out-of-range request), the raw formula goes negative. The
	// hardware path saturates at 0 (swret's mb32 kernel and the Q15
	// fixed-point engine both do), so the float reference must too.
	return clamp01(1 - d/(1+float64(dmax)))
}

// Name implements Local.
func (Linear) Name() string { return "linear" }

// Quadratic replaces the Manhattan distance with the squared (Euclidean,
// per-dimension) distance normalized by dmax²: 1 - (d/dmax')², with
// dmax' = 1+dmax. It is gentler near exact matches and harsher far away.
type Quadratic struct{}

// Similarity implements Local.
func (Quadratic) Similarity(req, impl attr.Value, dmax uint16) float64 {
	d := dist(req, impl) / (1 + float64(dmax))
	// Clamped for the same reason as Linear: d > 1 must score 0, not < 0.
	return clamp01(1 - d*d)
}

// Name implements Local.
func (Quadratic) Name() string { return "quadratic" }

// Exact scores 1 for identical values and 0 otherwise — the natural
// measure for unordered mode flags.
type Exact struct{}

// Similarity implements Local.
func (Exact) Similarity(req, impl attr.Value, _ uint16) float64 {
	if req == impl {
		return 1
	}
	return 0
}

// Name implements Local.
func (Exact) Name() string { return "exact" }

// AtLeast treats the request as a lower bound: implementations meeting or
// exceeding the requested value are fully similar, shortfalls decay
// linearly as in eq. (1). This models QoS attributes like bitwidth or
// sample rate where over-provisioning costs nothing in quality. The
// shortfall branch inherits Linear's clamp, so results stay in [0, 1]
// even for out-of-range requests.
type AtLeast struct{}

// Similarity implements Local.
func (AtLeast) Similarity(req, impl attr.Value, dmax uint16) float64 {
	if impl >= req {
		return 1
	}
	return Linear{}.Similarity(req, impl, dmax)
}

// Name implements Local.
func (AtLeast) Name() string { return "at-least" }

func dist(a, b attr.Value) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

// Amalgamation combines the local similarities s_i (with weights w_i,
// already normalized to sum to 1) into a global similarity in [0, 1].
// Combine must not retain or modify sims or weights: the retrieval
// engine passes the same scratch slices for every variant it scores.
type Amalgamation interface {
	Combine(sims, weights []float64) float64
	Name() string
}

// WeightedSum is eq. (2): S = Σ w_i·s_i. The measure implemented in
// hardware.
type WeightedSum struct{}

// Combine implements Amalgamation.
func (WeightedSum) Combine(sims, weights []float64) float64 {
	var s float64
	for i := range sims {
		s += weights[i] * sims[i]
	}
	return clamp01(s)
}

// Name implements Amalgamation.
func (WeightedSum) Name() string { return "weighted-sum" }

// Minimum is the pessimistic amalgamation: the worst local similarity
// dominates. Weights select which attributes participate (w_i = 0 drops
// the attribute).
type Minimum struct{}

// Combine implements Amalgamation.
func (Minimum) Combine(sims, weights []float64) float64 {
	s := 1.0
	any := false
	for i := range sims {
		if weights[i] <= 0 {
			continue
		}
		any = true
		if sims[i] < s {
			s = sims[i]
		}
	}
	if !any {
		return 0
	}
	return s
}

// Name implements Amalgamation.
func (Minimum) Name() string { return "minimum" }

// Maximum is the optimistic amalgamation: the best local similarity
// dominates.
type Maximum struct{}

// Combine implements Amalgamation.
func (Maximum) Combine(sims, weights []float64) float64 {
	s := 0.0
	for i := range sims {
		if weights[i] <= 0 {
			continue
		}
		if sims[i] > s {
			s = sims[i]
		}
	}
	return s
}

// Name implements Amalgamation.
func (Maximum) Name() string { return "maximum" }

// WeightedEuclid is S = sqrt(Σ w_i·s_i²), an L2 amalgamation. By Jensen's
// inequality it never scores below WeightedSum, making it the most
// forgiving option for mixed similarity vectors.
type WeightedEuclid struct{}

// Combine implements Amalgamation.
func (WeightedEuclid) Combine(sims, weights []float64) float64 {
	var s float64
	for i := range sims {
		s += weights[i] * sims[i] * sims[i]
	}
	return clamp01(math.Sqrt(s))
}

// Name implements Amalgamation.
func (WeightedEuclid) Name() string { return "weighted-euclid" }

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// LocalByName returns the local measure registered under name.
func LocalByName(name string) (Local, error) {
	switch name {
	case "linear", "":
		return Linear{}, nil
	case "quadratic":
		return Quadratic{}, nil
	case "exact":
		return Exact{}, nil
	case "at-least":
		return AtLeast{}, nil
	default:
		return nil, fmt.Errorf("similarity: unknown local measure %q", name)
	}
}

// AmalgamationByName returns the amalgamation registered under name.
func AmalgamationByName(name string) (Amalgamation, error) {
	switch name {
	case "weighted-sum", "":
		return WeightedSum{}, nil
	case "minimum":
		return Minimum{}, nil
	case "maximum":
		return Maximum{}, nil
	case "weighted-euclid":
		return WeightedEuclid{}, nil
	default:
		return nil, fmt.Errorf("similarity: unknown amalgamation %q", name)
	}
}
