package retrieval

import (
	"errors"
	"math"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/similarity"
)

func paperEngine(t *testing.T, opt Options) *Engine {
	t.Helper()
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(cb, opt)
}

// TestTableOne reproduces Table 1 of the paper end to end: the FIR
// equalizer request must score the DSP variant 0.96, the FPGA variant
// 0.85 and the GP-Proc variant 0.43, and the DSP variant must win.
func TestTableOne(t *testing.T) {
	e := paperEngine(t, Options{})
	all, err := e.RetrieveAll(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("scored %d impls, want 3", len(all))
	}
	byImpl := map[casebase.ImplID]Result{}
	for _, r := range all {
		byImpl[r.Impl] = r
	}
	want := map[casebase.ImplID]float64{1: 0.85, 2: 0.96, 3: 0.43}
	for id, s := range want {
		got := byImpl[id].Similarity
		if math.Abs(got-s) > 0.005 {
			t.Errorf("impl %d: S = %.4f, want ≈%.2f (Table 1)", id, got, s)
		}
	}
	if all[0].Impl != 2 || all[0].Target != casebase.TargetDSP {
		t.Errorf("best = impl %d (%v), want DSP impl 2", all[0].Impl, all[0].Target)
	}
	if all[1].Impl != 1 || all[2].Impl != 3 {
		t.Errorf("ranking = %d,%d,%d, want 2,1,3", all[0].Impl, all[1].Impl, all[2].Impl)
	}
}

// TestTableOneLocals checks the per-attribute breakdown against the
// printed local similarities.
func TestTableOneLocals(t *testing.T) {
	e := paperEngine(t, Options{})
	all, err := e.RetrieveAll(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	var gpp Result
	for _, r := range all {
		if r.Impl == 3 {
			gpp = r
		}
	}
	// Table 1 GP-Proc rows print s = 0.11, 0.66, 0.51 for attrs 1, 3, 4
	// (truncated); compare against the exact eq. (1) fractions.
	wants := []struct {
		id  uint16
		sim float64
	}{{1, 1 - 8.0/9}, {3, 1 - 1.0/3}, {4, 1 - 18.0/37}}
	if len(gpp.Locals) != 3 {
		t.Fatalf("locals = %d, want 3", len(gpp.Locals))
	}
	for i, w := range wants {
		l := gpp.Locals[i]
		if l.ID != w.id {
			t.Errorf("local %d has ID %d, want %d", i, l.ID, w.id)
		}
		if math.Abs(l.Sim-w.sim) > 0.005 {
			t.Errorf("local s for attr %d = %.4f, want ≈%.2f", w.id, l.Sim, w.sim)
		}
		if !l.Found {
			t.Errorf("attr %d should be found", w.id)
		}
	}
}

func TestRetrieveBest(t *testing.T) {
	e := paperEngine(t, Options{})
	best, err := e.Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if best.Impl != 2 {
		t.Errorf("best = %d, want DSP (2)", best.Impl)
	}
}

func TestThresholdRejection(t *testing.T) {
	e := paperEngine(t, Options{Threshold: 0.99})
	_, err := e.Retrieve(casebase.PaperRequest())
	var nm *ErrNoMatch
	if !errors.As(err, &nm) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
	if math.Abs(nm.Best-0.96) > 0.01 {
		t.Errorf("ErrNoMatch.Best = %v, want ≈0.96", nm.Best)
	}
	if nm.Error() == "" {
		t.Error("ErrNoMatch must render a message")
	}
}

func TestThresholdFiltersN(t *testing.T) {
	// Threshold 0.5 admits DSP (0.96) and FPGA (0.85) but rejects
	// GP-Proc (0.43) — the §3 "reject all results below a given
	// threshold similarity".
	e := paperEngine(t, Options{Threshold: 0.5})
	got, err := e.RetrieveN(casebase.PaperRequest(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("n-best returned %d results, want 2", len(got))
	}
	if got[0].Impl != 2 || got[1].Impl != 1 {
		t.Errorf("n-best order = %d,%d, want 2,1", got[0].Impl, got[1].Impl)
	}
}

func TestRetrieveNLimits(t *testing.T) {
	e := paperEngine(t, Options{})
	got, err := e.RetrieveN(casebase.PaperRequest(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("n=2 returned %d", len(got))
	}
	if _, err := e.RetrieveN(casebase.PaperRequest(), 0); err == nil {
		t.Error("n=0 must error")
	}
}

func TestMissingAttributeScoresZero(t *testing.T) {
	// Request the FFT with an output-mode constraint; no FFT variant
	// describes output-mode, so that local similarity must be 0.
	e := paperEngine(t, Options{})
	req := casebase.NewRequest(casebase.Type1DFFT,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
	).EqualWeights()
	all, err := e.RetrieveAll(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		var om *LocalScore
		for i := range r.Locals {
			if r.Locals[i].ID == uint16(casebase.AttrOutputMode) {
				om = &r.Locals[i]
			}
		}
		if om == nil {
			t.Fatal("output-mode local score missing")
		}
		if om.Found || om.Sim != 0 {
			t.Errorf("impl %d: missing attribute must score 0, got found=%v s=%v",
				r.Impl, om.Found, om.Sim)
		}
		// Global is bounded above by 1 - w_missing.
		if r.Similarity > 0.5+1e-9 {
			t.Errorf("impl %d: S = %v exceeds 1 - w_missing", r.Impl, r.Similarity)
		}
	}
}

func TestInvalidRequestRejected(t *testing.T) {
	e := paperEngine(t, Options{})
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := e.Retrieve(bad); err == nil {
		t.Error("unknown type must error")
	}
	if _, err := e.RetrieveAll(bad); err == nil {
		t.Error("RetrieveAll must validate too")
	}
	if _, err := e.RetrieveN(bad, 3); err == nil {
		t.Error("RetrieveN must validate too")
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := paperEngine(t, Options{})
	req := casebase.PaperRequest()
	if _, err := e.Retrieve(req); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Retrievals != 1 || st.ImplsScored != 3 || st.AttrsCompared != 9 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAlternativeMeasures(t *testing.T) {
	// With the pessimistic Minimum amalgamation the DSP variant still
	// wins Table 1 (its worst local similarity 0.89 beats FPGA's 0.66).
	e := paperEngine(t, Options{Amalgamation: similarity.Minimum{}})
	best, err := e.Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if best.Impl != 2 {
		t.Errorf("minimum amalgamation best = %d, want 2", best.Impl)
	}
	// With AtLeast local measure, surround (2) satisfies a stereo (1)
	// request fully, so the FPGA variant ties the DSP variant; DSP
	// still wins on the sample-rate attribute equally — both reach the
	// same S, and the tie breaks to the lower impl ID (1, FPGA).
	e2 := paperEngine(t, Options{Local: similarity.AtLeast{}})
	best2, err := e2.Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if best2.Impl != 1 {
		t.Errorf("at-least best = %d, want 1 (FPGA ties DSP, lower ID wins)", best2.Impl)
	}
}

// Property: the ranking is invariant to the order implementations were
// added to the case base — only IDs and attribute content matter.
func TestRankingInsertionOrderInvariant(t *testing.T) {
	build := func(order []int) *casebase.CaseBase {
		reg := casebase.PaperRegistry()
		b := casebase.NewBuilder(reg)
		b.AddType(casebase.TypeFIREqualizer, "FIR Equalizer")
		src, _ := casebase.PaperCaseBase()
		ft, _ := src.Type(casebase.TypeFIREqualizer)
		for _, i := range order {
			b.AddImpl(casebase.TypeFIREqualizer, ft.Impls[i])
		}
		cb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return cb
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	var first []casebase.ImplID
	for _, order := range orders {
		e := NewEngine(build(order), Options{})
		all, err := e.RetrieveAll(casebase.PaperRequest())
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]casebase.ImplID, len(all))
		for i, r := range all {
			ids[i] = r.Impl
		}
		if first == nil {
			first = ids
			continue
		}
		for i := range ids {
			if ids[i] != first[i] {
				t.Fatalf("order %v changed the ranking: %v vs %v", order, ids, first)
			}
		}
	}
}

// Property: raising the threshold can only shrink the n-best result
// set, never reorder it.
func TestThresholdMonotonicity(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	req := casebase.PaperRequest()
	var prev []Result
	for _, th := range []float64{0, 0.3, 0.5, 0.9, 0.97} {
		e := NewEngine(cb, Options{Threshold: th})
		got, err := e.RetrieveN(req, 10)
		if err != nil {
			var nm *ErrNoMatch
			if errors.As(err, &nm) {
				got = nil
			} else {
				t.Fatal(err)
			}
		}
		if prev != nil {
			if len(got) > len(prev) {
				t.Fatalf("threshold %v grew the result set", th)
			}
			for i := range got {
				if got[i].Impl != prev[i].Impl {
					t.Fatalf("threshold %v reordered results", th)
				}
			}
		}
		if got != nil {
			prev = got
		}
	}
}
