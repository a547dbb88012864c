// Package fixed implements the 16-bit fixed-point arithmetic used by the
// hardware retrieval unit described in the paper (§4.2: "The processing
// bitwidth of all attribute values was defined at 16 bit").
//
// Two formats appear in the datapath:
//
//   - Q15: signed 1.15 fixed point in [-1, 1). Similarity values live in
//     [0, 1], so the usable range here is [0, 1). The value 1.0 is
//     represented saturated as MaxQ15 = 0x7FFF (error < 2^-15).
//   - UQ16: unsigned 0.16 fixed point in [0, 1). Used for the pre-computed
//     reciprocal (1+dmax)^-1 stored in the attribute-supplemental list
//     (fig. 4 right, "Max Range -1" entries). Storing the reciprocal lets
//     the hardware replace a division by a multiplication (§4.1).
//
// All operations saturate rather than wrap: the datapath computes
// similarities, which are mathematically confined to [0, 1], so wrapping
// would only ever convert a rounding artifact into a gross error.
package fixed

// Q15 is a signed 16-bit fixed-point number with 15 fractional bits.
type Q15 int16

// UQ16 is an unsigned 16-bit fixed-point number with 16 fractional bits.
type UQ16 uint16

const (
	// OneQ15 is the largest representable Q15 value, used as the
	// saturated representation of 1.0.
	OneQ15 Q15 = 0x7FFF
	// q15Scale is the scale factor 2^15.
	q15Scale = 1 << 15
	// uq16Scale is the scale factor 2^16.
	uq16Scale = 1 << 16
)

// FromFloat converts a float64 in [0, 1] to Q15, saturating outside that
// range and rounding to nearest.
func FromFloat(f float64) Q15 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return OneQ15
	}
	v := int32(f*q15Scale + 0.5)
	if v > int32(OneQ15) {
		v = int32(OneQ15)
	}
	return Q15(v)
}

// Float returns the float64 value of q.
func (q Q15) Float() float64 { return float64(q) / q15Scale }

// AddSat returns a+b with saturation at [0, OneQ15]. Similarity
// accumulation never needs negative values, so the lower clamp is 0.
func AddSat(a, b Q15) Q15 {
	s := int32(a) + int32(b)
	if s > int32(OneQ15) {
		return OneQ15
	}
	if s < 0 {
		return 0
	}
	return Q15(s)
}

// SubSat returns a-b saturated to [0, OneQ15].
func SubSat(a, b Q15) Q15 {
	s := int32(a) - int32(b)
	if s < 0 {
		return 0
	}
	if s > int32(OneQ15) {
		return OneQ15
	}
	return Q15(s)
}

// Mul returns the Q15 product a*b (both in [0,1)), truncating toward zero
// exactly as the 18x18 hardware multiplier followed by a 15-bit right
// shift would.
func Mul(a, b Q15) Q15 {
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	p := int32(a) * int32(b)
	return Q15(p >> 15)
}

// MulDistRecip computes d * recip where d is an unsigned integer distance
// (Manhattan distance between two 16-bit attribute values, so d fits in
// 17 bits) and recip is the UQ16 reciprocal of (1+dmax). The result is the
// Q15 quotient d/(1+dmax), saturated to [0, OneQ15]. This models the
// MULT18X18 + shift in the fig. 7 datapath.
func MulDistRecip(d uint32, recip UQ16) Q15 {
	// d * recip has 16 fractional bits; shift by 1 to land on 15.
	p := uint64(d) * uint64(recip) // up to 33 bits
	q := p >> 1                    // Q15
	if q > uint64(OneQ15) {
		return OneQ15
	}
	return Q15(q)
}

// Recip returns the UQ16 representation of 1/(1+dmax), the constant stored
// per attribute type in the supplemental list. dmax is the design-global
// maximum distance for the attribute type. Rounds to nearest.
func Recip(dmax uint16) UQ16 {
	den := uint32(dmax) + 1
	// (2^16 + den/2) / den, saturated below 2^16.
	v := (uint32(uq16Scale) + den/2) / den
	if v > 0xFFFF {
		v = 0xFFFF
	}
	return UQ16(v)
}

// LocalSim computes the local similarity s = 1 - d/(1+dmax) of eq. (1) in
// 16-bit fixed point, exactly as the hardware does: one multiply by the
// stored reciprocal, one saturated subtract from 1.
func LocalSim(d uint32, recip UQ16) Q15 {
	return SubSat(OneQ15, MulDistRecip(d, recip))
}

// WeightedAcc accumulates w*s into acc with saturation, the inner step of
// the eq. (2) amalgamation S = sum w_i * s_i as the datapath performs it.
//
//qosvet:keep the per-step reference datapath: retrieval's fixedReference, the differential check on FixedEngine, accumulates with it
func WeightedAcc(acc, w, s Q15) Q15 {
	return AddSat(acc, Mul(w, s))
}

// Dist returns the Manhattan distance |a-b| of two 16-bit attribute
// values, as computed by the ABS(X) block in fig. 7.
func Dist(a, b uint16) uint32 {
	if a > b {
		return uint32(a - b)
	}
	return uint32(b - a)
}

// DivQ15 returns the true Q15 quotient num/den for den > 0, saturated to
// [0, OneQ15]. It exists only as the baseline for the reciprocal-multiply
// ablation (DESIGN.md §5): the paper's hardware avoids exactly this
// divider.
//
//qosvet:keep the divider baseline of TestDivQ15AgainstMulRecip and BenchmarkReciprocalVsDivide
func DivQ15(num, den uint32) Q15 {
	if den == 0 {
		return OneQ15
	}
	q := (uint64(num) << 15) / uint64(den)
	if q > uint64(OneQ15) {
		return OneQ15
	}
	return Q15(q)
}

// WeightsQ15 converts normalized float weights to Q15 for the datapath.
// Uniform weight vectors (the paper's w_i = 1/n case) are routed through
// EqualWeights so they sum to exactly 1.0 in Q15, as a design-time list
// generator would emit them; mixed vectors are rounded individually.
func WeightsQ15(ws []float64) []Q15 {
	if len(ws) == 0 {
		return nil
	}
	equal := true
	for _, w := range ws {
		if w != ws[0] {
			equal = false
			break
		}
	}
	if equal {
		return EqualWeights(len(ws))
	}
	out := make([]Q15, len(ws))
	for i, w := range ws {
		out[i] = FromFloat(w)
	}
	return out
}

// EqualWeights returns n Q15 weights summing (as nearly as representable)
// to 1, i.e. the w_i = 1/n of the paper's example. The remainder from
// rounding is added to the first weight so that the sum saturates to
// OneQ15 exactly.
func EqualWeights(n int) []Q15 {
	if n <= 0 {
		return nil
	}
	w := make([]Q15, n)
	base := int32(q15Scale) / int32(n)
	rem := int32(q15Scale) - base*int32(n)
	for i := range w {
		w[i] = Q15(base)
	}
	w[0] = Q15(int32(w[0]) + rem)
	if n == 1 {
		w[0] = OneQ15
	}
	return w
}
