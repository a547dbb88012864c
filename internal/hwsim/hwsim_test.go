package hwsim

import (
	"math"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtl"
)

func TestHardwareTableOne(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retrieve(cb, casebase.PaperRequest(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ImplID != 2 {
		t.Errorf("hardware best = %d, want DSP (2)", res.ImplID)
	}
	if math.Abs(res.Sim.Float()-0.96) > 0.01 {
		t.Errorf("hardware S = %v, want ≈0.96", res.Sim.Float())
	}
	if res.Cycles == 0 {
		t.Error("cycle count must be positive")
	}
	t.Logf("paper example: %d cycles, S=%.4f", res.Cycles, res.Sim.Float())
}

func TestHardwareMatchesFixedEngine(t *testing.T) {
	// The cycle-accurate unit and the fixed-point software twin must
	// produce the identical (ID, Q15 similarity) pair — they implement
	// the same datapath.
	cb, _ := casebase.PaperCaseBase()
	fe, err := retrieval.NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	req := casebase.PaperRequest()
	hw, err := Retrieve(cb, req, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := fe.Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	if hw.ImplID != uint16(sw.Impl) {
		t.Errorf("hw best %d, fixed engine best %d", hw.ImplID, sw.Impl)
	}
	if hw.Sim != sw.Similarity {
		t.Errorf("hw S=%d, fixed engine S=%d (must be bit-identical)", hw.Sim, sw.Similarity)
	}
}

func TestHardwareTypeNotFound(t *testing.T) {
	// Bypass request validation to exercise the FSM's error path: the
	// image encodes a type the tree does not contain.
	cb, _ := casebase.PaperCaseBase()
	tree, err := memlist.EncodeTree(cb)
	if err != nil {
		t.Fatal(err)
	}
	supp := memlist.EncodeSupplemental(cb.Registry())
	reqImg, err := memlist.EncodeRequest(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	reqImg.Words[0] = 77 // unknown type
	u := New(tree, supp, reqImg, Config{})
	if _, err := u.Run(100000); err == nil {
		t.Error("unknown type must error")
	}
	if u.StateQ() != StError {
		t.Errorf("state = %v, want Error", u.StateQ())
	}
}

func TestHardwareCompactAgrees(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	req := casebase.PaperRequest()
	base, err := Retrieve(cb, req, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Retrieve(cb, req, Config{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.ImplID != comp.ImplID || base.Sim != comp.Sim {
		t.Errorf("compact mode changed the result: %+v vs %+v", base, comp)
	}
	if comp.Cycles >= base.Cycles {
		t.Errorf("compact (%d cycles) must beat baseline (%d cycles)", comp.Cycles, base.Cycles)
	}
	speedup := float64(base.Cycles) / float64(comp.Cycles)
	t.Logf("compact fetch speedup: %.2fx (%d → %d cycles)", speedup, base.Cycles, comp.Cycles)
	// §5: "speeding everything up at least by factor 2" refers to the
	// memory-fetch share; end-to-end we demand a solid improvement.
	if speedup < 1.3 {
		t.Errorf("compact speedup %.2fx is implausibly low", speedup)
	}
}

func TestHardwareRestartScanAblation(t *testing.T) {
	// The naive restart-from-top scan must return identical results
	// while consuming more cycles — quantifying the §4.1 pre-sorting
	// rationale.
	r := rand.New(rand.NewSource(5))
	cb, reg := randomCaseBase(r, 2, 6, 6, 8)
	req := randomRequest(r, cb, reg, 5)
	base, err := Retrieve(cb, req, Config{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Retrieve(cb, req, Config{RestartScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.ImplID != naive.ImplID || base.Sim != naive.Sim {
		t.Errorf("restart scan changed the result: %+v vs %+v", base, naive)
	}
	if naive.Cycles <= base.Cycles {
		t.Errorf("restart scan (%d cycles) should cost more than resumable (%d cycles)",
			naive.Cycles, base.Cycles)
	}
	t.Logf("resumable %d cycles, restart %d cycles (%.2fx)",
		base.Cycles, naive.Cycles, float64(naive.Cycles)/float64(base.Cycles))
}

func TestHardwareTrace(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	tr := rtl.NewTrace()
	u, err := Build(cb, casebase.PaperRequest(), Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	// The FSM must have passed through the calculation states.
	seen := map[uint64]bool{}
	for _, e := range tr.Events() {
		if e.Signal == "state" {
			seen[e.Value] = true
		}
	}
	for _, st := range []State{StTypeCheck, StImplCheck, StSi, StAcc, StBestCmp} {
		if !seen[uint64(st)] {
			t.Errorf("state %v never reached", st)
		}
	}
	// The clock stops the cycle Done latches, so the terminal state
	// shows on the state register rather than in the trace.
	if u.StateQ() != StDone {
		t.Errorf("final state = %v, want Done", u.StateQ())
	}
}

func TestHardwareCounters(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	u, _ := Build(cb, casebase.PaperRequest(), Config{})
	res, err := u.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if u.BRAMReads() == 0 {
		t.Error("BRAM read counter dead")
	}
	// 3 impls × 3 matched attrs × 2 multipliers = 18 products.
	if got := u.MultUses(); got != 18 {
		t.Errorf("multiplier uses = %d, want 18", got)
	}
	if u.BRAMReads() >= res.Cycles {
		t.Errorf("reads (%d) should be below total cycles (%d)", u.BRAMReads(), res.Cycles)
	}
}

func TestHardwareMissingAttribute(t *testing.T) {
	// FFT variants carry no output-mode attribute; the unit must score
	// s_i = 0 for it and still deliver a best match.
	cb, _ := casebase.PaperCaseBase()
	req := casebase.NewRequest(casebase.Type1DFFT,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
	).EqualWeights()
	res, err := Retrieve(cb, req, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := retrieval.NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := fe.Retrieve(req)
	if res.ImplID != uint16(sw.Impl) || res.Sim != sw.Similarity {
		t.Errorf("hw %+v disagrees with fixed engine %+v", res, sw)
	}
	if res.Sim.Float() > 0.5 {
		t.Errorf("S = %v, missing attribute must cap it at 1 - w", res.Sim.Float())
	}
}

// TestHardwareRandomAgreement is the central four-way equivalence
// property at hwsim level: across randomized case bases the hardware
// unit (both fetch modes) and the fixed-point engine return identical
// results.
func TestHardwareRandomAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		cb, reg := randomCaseBase(r, 1+r.Intn(4), 1+r.Intn(8), 1+r.Intn(6), 8)
		fe, err := retrieval.NewFixedEngine(cb)
		if err != nil {
			t.Fatal(err)
		}
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		sw, err := fe.Retrieve(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, compact := range []bool{false, true} {
			hw, err := Retrieve(cb, req, Config{Compact: compact})
			if err != nil {
				t.Fatalf("trial %d compact=%v: %v", trial, compact, err)
			}
			if hw.ImplID != uint16(sw.Impl) || hw.Sim != sw.Similarity {
				t.Errorf("trial %d compact=%v: hw (%d, %d) vs sw (%d, %d)",
					trial, compact, hw.ImplID, hw.Sim, sw.Impl, sw.Similarity)
			}
		}
	}
}

// --- helpers ---------------------------------------------------------

func randomCaseBase(r *rand.Rand, nTypes, implsPer, attrsPer, attrUniverse int) (*casebase.CaseBase, *attr.Registry) {
	reg := attr.NewRegistry()
	for i := 1; i <= attrUniverse; i++ {
		lo := attr.Value(r.Intn(50))
		hi := lo + attr.Value(1+r.Intn(200))
		reg.MustDefine(attr.Def{ID: attr.ID(i), Name: "a", Lo: lo, Hi: hi})
	}
	if attrsPer > attrUniverse {
		attrsPer = attrUniverse
	}
	b := casebase.NewBuilder(reg)
	for ti := 1; ti <= nTypes; ti++ {
		b.AddType(casebase.TypeID(ti), "t")
		for ii := 1; ii <= implsPer; ii++ {
			perm := r.Perm(attrUniverse)[:attrsPer]
			var ps []attr.Pair
			for _, ai := range perm {
				d, _ := reg.Lookup(attr.ID(ai + 1))
				v := d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
				ps = append(ps, attr.Pair{ID: d.ID, Value: v})
			}
			b.AddImpl(casebase.TypeID(ti), casebase.Implementation{ID: casebase.ImplID(ii), Attrs: ps})
		}
	}
	cb, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cb, reg
}

func randomRequest(r *rand.Rand, cb *casebase.CaseBase, reg *attr.Registry, nConstraints int) casebase.Request {
	types := cb.Types()
	ft := types[r.Intn(len(types))]
	ids := reg.IDs()
	if nConstraints > len(ids) {
		nConstraints = len(ids)
	}
	perm := r.Perm(len(ids))[:nConstraints]
	var cs []casebase.Constraint
	for _, i := range perm {
		d, _ := reg.Lookup(ids[i])
		v := d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
		cs = append(cs, casebase.Constraint{ID: d.ID, Value: v})
	}
	return casebase.NewRequest(ft.ID, cs...).EqualWeights()
}

// TestGoldenStateSequence pins the exact FSM behavior on a minimal case:
// one type, one implementation, one attribute, one constraint. Any
// change to the cycle-level protocol shows up here first.
func TestGoldenStateSequence(t *testing.T) {
	reg := attr.NewRegistry()
	reg.MustDefine(attr.Def{ID: 1, Name: "a", Lo: 0, Hi: 10})
	b := casebase.NewBuilder(reg)
	b.AddType(1, "t")
	b.AddImpl(1, casebase.Implementation{ID: 1, Attrs: []attr.Pair{{ID: 1, Value: 5}}})
	cb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := casebase.NewRequest(1, casebase.Constraint{ID: 1, Value: 5}).EqualWeights()

	tr := rtl.NewTrace()
	u, err := Build(cb, req, Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	// A perfect single-constraint match scores w·s = 0x7FFF·0x7FFF>>15
	// = 0x7FFE: the one-LSB truncation of the weight multiply.
	if res.ImplID != 1 || res.Sim != 0x7FFE {
		t.Fatalf("result = %+v, want impl 1 at Q15 0x7FFE", res)
	}

	var states []State
	for _, e := range tr.Events() {
		if e.Signal == "state" {
			states = append(states, State(e.Value))
		}
	}
	want := []State{
		StReqType, StReqTypeWait,
		StTypeScan, StTypeCheck, StTypePtrWait,
		StImplScan, StImplCheck, StImplPtrWait,
		StReqAttr, StReqAttrCheck, StReqAttrVal, StReqAttrWeight,
		StSuppScan, StSuppCheck, StSuppRecipWait,
		StCBAttrScan, StCBAttrCheck, StCBAttrVal,
		StSi, StAcc,
		StReqAttr, StReqAttrCheck, // terminator fetch
		StBestCmp,
		StImplScan, StImplCheck, // end of sub-list
	}
	if len(states) != len(want) {
		t.Fatalf("state sequence length %d, want %d:\n%v", len(states), len(want), states)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state %d = %v, want %v\nfull: %v", i, states[i], want[i], states)
		}
	}
	// One cycle per visible compute state; Done latches on the last
	// state's own clock edge.
	if res.Cycles != uint64(len(want)) {
		t.Errorf("cycles = %d, want %d", res.Cycles, len(want))
	}
}
