package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.25, 0.5, 0.75, 0.999, 1.0 / 3.0}
	for _, f := range cases {
		q := FromFloat(f)
		if got := q.Float(); math.Abs(got-f) > 1.0/q15Scale {
			t.Errorf("FromFloat(%v).Float() = %v, want within 2^-15", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(-0.5) != 0 {
		t.Errorf("FromFloat(-0.5) = %v, want 0", FromFloat(-0.5))
	}
	if FromFloat(1.5) != OneQ15 {
		t.Errorf("FromFloat(1.5) = %v, want OneQ15", FromFloat(1.5))
	}
	if FromFloat(1.0) != OneQ15 {
		t.Errorf("FromFloat(1.0) = %v, want OneQ15", FromFloat(1.0))
	}
}

func TestAddSat(t *testing.T) {
	if AddSat(OneQ15, OneQ15) != OneQ15 {
		t.Error("AddSat must saturate at OneQ15")
	}
	if AddSat(0x4000, 0x2000) != 0x6000 {
		t.Errorf("AddSat(0.5,0.25) = %#x", AddSat(0x4000, 0x2000))
	}
	if AddSat(0, 0) != 0 {
		t.Error("AddSat(0,0) != 0")
	}
}

func TestSubSat(t *testing.T) {
	if SubSat(0x2000, 0x4000) != 0 {
		t.Error("SubSat must clamp at 0")
	}
	if SubSat(OneQ15, 0) != OneQ15 {
		t.Error("SubSat(1,0) != 1")
	}
	if SubSat(0x4000, 0x1000) != 0x3000 {
		t.Errorf("SubSat = %#x", SubSat(0x4000, 0x1000))
	}
}

func TestMul(t *testing.T) {
	half := FromFloat(0.5)
	quarter := Mul(half, half)
	if math.Abs(quarter.Float()-0.25) > 2.0/q15Scale {
		t.Errorf("0.5*0.5 = %v", quarter.Float())
	}
	if Mul(0, OneQ15) != 0 {
		t.Error("0*1 != 0")
	}
	// Negative inputs are clamped, never produce garbage.
	if Mul(-1, OneQ15) != 0 {
		t.Error("Mul with negative input must clamp to 0")
	}
}

func TestRecipExactness(t *testing.T) {
	// For the paper's Table 1 dmax values.
	for _, dmax := range []uint16{2, 8, 36} {
		r := Recip(dmax)
		want := 1.0 / float64(dmax+1)
		if got := float64(r) / uq16Scale; math.Abs(got-want) > 1.0/uq16Scale {
			t.Errorf("Recip(%d) = %v, want %v", dmax, got, want)
		}
	}
}

func TestLocalSimMatchesEquationOne(t *testing.T) {
	// Table 1 spot checks: s = 1 - d/(1+dmax).
	cases := []struct {
		d    uint32
		dmax uint16
		want float64
	}{
		{0, 8, 1.0},
		{1, 2, 1 - 1.0/3.0},   // 0.66...
		{4, 36, 1 - 4.0/37.0}, // 0.8918...
		{8, 8, 1 - 8.0/9.0},   // 0.111...
		{18, 36, 1 - 18.0/37.0},
	}
	for _, c := range cases {
		got := LocalSim(c.d, Recip(c.dmax))
		if math.Abs(got.Float()-c.want) > 3.0/q15Scale {
			t.Errorf("LocalSim(d=%d, dmax=%d) = %v, want %v", c.d, c.dmax, got.Float(), c.want)
		}
	}
}

func TestDist(t *testing.T) {
	if Dist(16, 8) != 8 || Dist(8, 16) != 8 || Dist(5, 5) != 0 {
		t.Error("Dist is not |a-b|")
	}
	if Dist(0, 0xFFFF) != 0xFFFF {
		t.Error("Dist full range")
	}
}

func TestDivQ15AgainstMulRecip(t *testing.T) {
	// The reciprocal-multiply must track the true division within a
	// couple of LSBs across the whole operating range.
	for dmax := uint16(1); dmax < 400; dmax += 7 {
		r := Recip(dmax)
		for d := uint32(0); d <= uint32(dmax); d += 3 {
			byMul := MulDistRecip(d, r)
			byDiv := DivQ15(d, uint32(dmax)+1)
			diff := int32(byMul) - int32(byDiv)
			if diff < 0 {
				diff = -diff
			}
			// The stored reciprocal carries up to 0.5 ulp of UQ16
			// error; after multiplying by d that is d/4 Q15 LSBs.
			// This bounded drift is the accuracy price of the
			// paper's divider-free datapath.
			if diff > int32(d)/4+2 {
				t.Fatalf("dmax=%d d=%d: mul=%d div=%d", dmax, d, byMul, byDiv)
			}
		}
	}
}

func TestEqualWeights(t *testing.T) {
	for n := 1; n <= 12; n++ {
		w := EqualWeights(n)
		if len(w) != n {
			t.Fatalf("len = %d", len(w))
		}
		var sum int32
		for _, x := range w {
			sum += int32(x)
		}
		if sum != int32(q15Scale) && !(n == 1 && Q15(sum) == OneQ15) {
			t.Errorf("n=%d: weights sum to %d, want %d", n, sum, q15Scale)
		}
	}
	if EqualWeights(0) != nil {
		t.Error("EqualWeights(0) should be nil")
	}
}

// Property: LocalSim is monotonically non-increasing in d.
func TestLocalSimMonotone(t *testing.T) {
	f := func(dmax uint16, a, b uint16) bool {
		if dmax == 0 {
			dmax = 1
		}
		da, db := uint32(a)%uint32(dmax+1), uint32(b)%uint32(dmax+1)
		if da > db {
			da, db = db, da
		}
		r := Recip(dmax)
		return LocalSim(da, r) >= LocalSim(db, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddSat is commutative and bounded.
func TestAddSatProperties(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Q15(a), Q15(b)
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		s := AddSat(x, y)
		return s == AddSat(y, x) && s >= 0 && s <= OneQ15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mul result never exceeds either operand (both in [0,1)).
func TestMulBounded(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Q15(a), Q15(b)
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		p := Mul(x, y)
		return p <= x && p <= y && p >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedAcc(t *testing.T) {
	// acc += w*s, the eq. (2) inner step. Half weight of a full
	// similarity adds ~0.5.
	acc := WeightedAcc(0, FromFloat(0.5), OneQ15)
	if math.Abs(acc.Float()-0.5) > 2.0/q15Scale {
		t.Errorf("acc = %v", acc.Float())
	}
	// Saturation at 1.0.
	acc = WeightedAcc(OneQ15, OneQ15, OneQ15)
	if acc != OneQ15 {
		t.Error("WeightedAcc must saturate")
	}
}

func TestWeightsQ15(t *testing.T) {
	if WeightsQ15(nil) != nil {
		t.Error("empty weights should be nil")
	}
	// Uniform vector routes through EqualWeights: exact Q15 sum.
	w := WeightsQ15([]float64{0.25, 0.25, 0.25, 0.25})
	var sum int32
	for _, x := range w {
		sum += int32(x)
	}
	if sum != q15Scale {
		t.Errorf("uniform weights sum to %d, want %d", sum, q15Scale)
	}
	// Mixed vector converts individually.
	m := WeightsQ15([]float64{0.75, 0.25})
	if math.Abs(m[0].Float()-0.75) > 1.0/q15Scale || math.Abs(m[1].Float()-0.25) > 1.0/q15Scale {
		t.Errorf("mixed weights = %v, %v", m[0].Float(), m[1].Float())
	}
}

func TestDivQ15Edges(t *testing.T) {
	if DivQ15(5, 0) != OneQ15 {
		t.Error("division by zero must saturate to one")
	}
	if DivQ15(100, 10) != OneQ15 {
		t.Error("quotient above one must saturate")
	}
	if DivQ15(0, 7) != 0 {
		t.Error("zero numerator")
	}
}

func TestRecipSmallDen(t *testing.T) {
	// dmax = 0 → den = 1 → reciprocal saturates just below 1.0.
	if Recip(0) != 0xFFFF {
		t.Errorf("Recip(0) = %#x", Recip(0))
	}
}

func TestMulDistRecipSaturates(t *testing.T) {
	// A huge distance against a near-one reciprocal overflows Q15 and
	// must clamp.
	if MulDistRecip(1<<17, 0xFFFF) != OneQ15 {
		t.Error("MulDistRecip must saturate at one")
	}
}
