package learn

import (
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/retrieval"
)

func paperBase(t *testing.T) *casebase.CaseBase {
	t.Helper()
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

func newDelta(t *testing.T, cb *casebase.CaseBase, alpha float64) *Delta {
	t.Helper()
	d, err := NewDelta(cb, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// observe feeds one sample-rate measurement of impl into d.
func observe(t *testing.T, d *Delta, impl casebase.ImplID, rate attr.Value) {
	t.Helper()
	if _, err := d.Observe(Observation{
		Type: casebase.TypeFIREqualizer, Impl: impl,
		Measured: []attr.Pair{{ID: casebase.AttrSampleRate, Value: rate}},
	}); err != nil {
		t.Fatal(err)
	}
}

// fold drains d into a Builder over cb and builds the next case base.
func fold(t *testing.T, cb *casebase.CaseBase, d *Delta) (*casebase.CaseBase, int) {
	t.Helper()
	b := NewBuilder(cb)
	d.FoldInto(b)
	next, changed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return next, changed
}

func implAttr(t *testing.T, cb *casebase.CaseBase, ty casebase.TypeID, impl casebase.ImplID, id attr.ID) (attr.Value, bool) {
	t.Helper()
	ft, _ := cb.Type(ty)
	im, ok := ft.Impl(impl)
	if !ok {
		t.Fatalf("impl %d of type %d missing", impl, ty)
	}
	return im.Attr(id)
}

func bestImpl(t *testing.T, cb *casebase.CaseBase) casebase.ImplID {
	t.Helper()
	best, err := retrieval.NewEngine(cb, retrieval.Options{}).Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	return best.Impl
}

func TestNewDeltaValidatesAlpha(t *testing.T) {
	cb := paperBase(t)
	for _, a := range []float64{0, -1, 1.5} {
		if _, err := NewDelta(cb, a); err == nil {
			t.Errorf("alpha %v must be rejected", a)
		}
	}
	if _, err := NewDelta(cb, 1); err != nil {
		t.Errorf("alpha 1 is valid: %v", err)
	}
}

func TestReviseConverges(t *testing.T) {
	// The DSP equalizer claims 44 kS/s; monitors repeatedly observe
	// only 40. The revision must converge onto 40.
	cb := paperBase(t)
	d := newDelta(t, cb, 0.5)
	for i := 0; i < 12; i++ {
		observe(t, d, 2, 40)
	}
	if d.Observations() != 12 {
		t.Errorf("observations = %d, want 12", d.Observations())
	}
	cb2, changed := fold(t, cb, d)
	if changed != 1 {
		t.Errorf("changed = %d, want 1", changed)
	}
	if v, _ := implAttr(t, cb2, casebase.TypeFIREqualizer, 2, casebase.AttrSampleRate); v != 40 {
		t.Errorf("revised sample rate = %d, want 40", v)
	}
	// Unrelated attributes untouched.
	if v, _ := implAttr(t, cb2, casebase.TypeFIREqualizer, 2, casebase.AttrBitwidth); v != 16 {
		t.Errorf("bitwidth disturbed: %d", v)
	}
}

func TestReviseChangesRetrievalOutcome(t *testing.T) {
	// Revision is visible to retrieval: degrade the DSP variant's
	// sample rate to 8 kS/s and the FPGA variant overtakes it for the
	// paper request.
	cb := paperBase(t)
	d := newDelta(t, cb, 1)
	observe(t, d, 2, 8)
	cb2, _ := fold(t, cb, d)
	if best := bestImpl(t, cb2); best != 1 {
		t.Errorf("after degrading DSP, best = %d, want FPGA (1)", best)
	}
}

func TestReviseClampsToBounds(t *testing.T) {
	// Observations outside the design range are clamped so dmax stays
	// valid and the rebuilt tree still validates.
	cb := paperBase(t)
	d := newDelta(t, cb, 1)
	observe(t, d, 2, 60000)
	cb2, _ := fold(t, cb, d)
	if v, _ := implAttr(t, cb2, casebase.TypeFIREqualizer, 2, casebase.AttrSampleRate); v != 44 {
		t.Errorf("clamped value = %d, want the upper bound 44", v)
	}
}

func TestObserveIgnoresUndescribedAttrs(t *testing.T) {
	// The FFT FPGA variant does not describe output-mode; observing it
	// must not invent the attribute.
	cb := paperBase(t)
	d := newDelta(t, cb, 1)
	if _, err := d.Observe(Observation{
		Type: casebase.Type1DFFT, Impl: 1,
		Measured: []attr.Pair{{ID: casebase.AttrOutputMode, Value: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	cb2, changed := fold(t, cb, d)
	if changed != 0 {
		t.Errorf("changed = %d, want 0", changed)
	}
	if _, ok := implAttr(t, cb2, casebase.Type1DFFT, 1, casebase.AttrOutputMode); ok {
		t.Error("undescribed attribute must not appear")
	}
}

func TestObserveValidates(t *testing.T) {
	d := newDelta(t, paperBase(t), 0.5)
	if _, err := d.Observe(Observation{Type: 99, Impl: 1}); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := d.Observe(Observation{Type: 1, Impl: 99}); err == nil {
		t.Error("unknown impl must fail")
	}
	if _, err := d.Observe(Observation{
		Type: 1, Impl: 1, Measured: []attr.Pair{{ID: 99, Value: 1}},
	}); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestRetainNewVariant(t *testing.T) {
	cb := paperBase(t)
	b := NewBuilder(cb)
	id, err := b.Retain(casebase.TypeFIREqualizer, casebase.Implementation{
		Name: "fir-eq-dsp2", Target: casebase.TargetDSP,
		Attrs: []attr.Pair{
			{ID: casebase.AttrBitwidth, Value: 16},
			{ID: casebase.AttrOutputMode, Value: 1},
			{ID: casebase.AttrSampleRate, Value: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("assigned ID = %d, want 4 (next free)", id)
	}
	cb2, changed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Errorf("changed = %d", changed)
	}
	// The retained variant matches the paper request exactly on sample
	// rate 40 and wins retrieval.
	if best := bestImpl(t, cb2); best != id {
		t.Errorf("best after retain = %d, want the new variant %d", best, id)
	}
	// And the new tree still encodes as a valid memory image.
	if _, err := memlist.EncodeTree(cb2); err != nil {
		t.Fatal(err)
	}
}

func TestRetainDuplicateRejected(t *testing.T) {
	b := NewBuilder(paperBase(t))
	if _, err := b.Retain(casebase.TypeFIREqualizer, casebase.Implementation{ID: 2}); err == nil {
		t.Error("retaining an existing ID must fail")
	}
	if _, err := b.Retain(99, casebase.Implementation{}); err == nil {
		t.Error("retaining into an unknown type must fail")
	}
	if _, err := b.Retain(casebase.TypeFIREqualizer, casebase.Implementation{ID: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Retain(casebase.TypeFIREqualizer, casebase.Implementation{ID: 9}); err == nil {
		t.Error("retaining the same new ID twice must fail")
	}
	// Auto-assignment skips IDs already retained in this commit.
	if id, err := b.Retain(casebase.TypeFIREqualizer, casebase.Implementation{}); err != nil || id != 10 {
		t.Errorf("auto ID = %d, %v; want 10", id, err)
	}
}

func TestRetire(t *testing.T) {
	cb := paperBase(t)
	b := NewBuilder(cb)
	if err := b.Retire(casebase.TypeFIREqualizer, 2); err != nil {
		t.Fatal(err)
	}
	cb2, changed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Errorf("changed = %d", changed)
	}
	ft, _ := cb2.Type(casebase.TypeFIREqualizer)
	if _, ok := ft.Impl(2); ok {
		t.Error("retired variant still present")
	}
	if len(ft.Impls) != 2 {
		t.Errorf("impls = %d, want 2", len(ft.Impls))
	}
	// Retrieval falls back to the FPGA variant.
	if best := bestImpl(t, cb2); best != 1 {
		t.Errorf("best after retiring DSP = %d, want 1", best)
	}
}

func TestRetireValidates(t *testing.T) {
	b := NewBuilder(paperBase(t))
	if err := b.Retire(99, 1); err == nil {
		t.Error("unknown type must fail")
	}
	if err := b.Retire(1, 99); err == nil {
		t.Error("unknown impl must fail")
	}
}

func TestRetireLastVariantFailsRebuild(t *testing.T) {
	b := NewBuilder(paperBase(t))
	// The 1D-FFT type has two variants; retire both.
	if err := b.Retire(casebase.Type1DFFT, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Retire(casebase.Type1DFFT, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Build(); err == nil {
		t.Error("build with an empty type must fail validation")
	}
}

// TestBuildChangedCount pins the journaled changed count: one per
// implementation entry that differs from the committed base.
func TestBuildChangedCount(t *testing.T) {
	cases := []struct {
		name    string
		alpha   float64
		stage   func(t *testing.T, d *Delta, b *Builder)
		changed int
		wantErr bool
	}{
		{"revise", 1, func(t *testing.T, d *Delta, b *Builder) { observe(t, d, 2, 40) }, 1, false},
		{"sub-LSB no-op", 0.5, func(t *testing.T, d *Delta, b *Builder) {
			observe(t, d, 2, 43) // 44 → 43.5 rounds back onto 44
		}, 0, false},
		{"revise two attrs of one impl", 1, func(t *testing.T, d *Delta, b *Builder) {
			observe(t, d, 2, 40)
			if _, err := d.Observe(Observation{Type: casebase.TypeFIREqualizer, Impl: 2,
				Measured: []attr.Pair{{ID: casebase.AttrBitwidth, Value: 8}}}); err != nil {
				t.Fatal(err)
			}
		}, 1, false},
		{"retain", 1, func(t *testing.T, d *Delta, b *Builder) {
			ft, _ := b.base.Type(casebase.TypeFIREqualizer)
			im := ft.Impls[1] // a copy of the DSP variant, ID auto-assigned
			im.ID = 0
			if _, err := b.Retain(casebase.TypeFIREqualizer, im); err != nil {
				t.Fatal(err)
			}
		}, 1, false},
		{"retire", 1, func(t *testing.T, d *Delta, b *Builder) {
			if err := b.Retire(casebase.TypeFIREqualizer, 2); err != nil {
				t.Fatal(err)
			}
		}, 1, false},
		{"retire a revised variant", 1, func(t *testing.T, d *Delta, b *Builder) {
			observe(t, d, 2, 40)
			if err := b.Retire(casebase.TypeFIREqualizer, 2); err != nil {
				t.Fatal(err)
			}
		}, 1, false},
		{"retire last variant", 1, func(t *testing.T, d *Delta, b *Builder) {
			for _, id := range []casebase.ImplID{1, 2} {
				if err := b.Retire(casebase.Type1DFFT, id); err != nil {
					t.Fatal(err)
				}
			}
		}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cb := paperBase(t)
			d := newDelta(t, cb, tc.alpha)
			b := NewBuilder(cb)
			tc.stage(t, d, b)
			d.FoldInto(b)
			_, changed, err := b.Build()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Build err = %v, want error %v", err, tc.wantErr)
			}
			if changed != tc.changed {
				t.Errorf("changed = %d, want %d", changed, tc.changed)
			}
		})
	}
}
