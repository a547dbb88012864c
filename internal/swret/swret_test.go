package swret

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/hwsim"
	"qosalloc/internal/mb32"
	"qosalloc/internal/memlist"
	"qosalloc/internal/retrieval"
)

func TestSoftwareTableOne(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	res, err := r.Retrieve(cb, casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.ImplID != 2 {
		t.Errorf("software best = %d, want DSP (2)", res.ImplID)
	}
	if math.Abs(res.Sim.Float()-0.96) > 0.01 {
		t.Errorf("software S = %v, want ≈0.96", res.Sim.Float())
	}
	t.Logf("paper example: %d cycles, %d instructions, S=%.4f",
		res.Cycles, res.Instructions, res.Sim.Float())
}

func TestSoftwareMatchesFixedEngineBitExact(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	fe, err := retrieval.NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	req := casebase.PaperRequest()
	sw, err := r.Retrieve(cb, req)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fe.Retrieve(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.ImplID != uint16(ref.Impl) || sw.Sim != ref.Similarity {
		t.Errorf("sw (%d, %d) vs fixed engine (%d, %d)", sw.ImplID, sw.Sim, ref.Impl, ref.Similarity)
	}
}

func TestSoftwareErrorPaths(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	r := NewRunner()
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := r.Retrieve(cb, bad); err == nil {
		t.Error("unknown type must error (validation)")
	}
}

func TestSoftwareTypeNotFoundInImage(t *testing.T) {
	// Corrupt the request image to exercise the routine's own error
	// path, past Go-side validation.
	cb, _ := casebase.PaperCaseBase()
	r := NewRunner()
	tree, supp, reqImg := mustImages(t, cb)
	reqImg.Words[0] = 77
	_, err := r.RetrieveImages(tree, supp, reqImg)
	if err == nil {
		t.Fatal("type-not-found must surface from the routine")
	}
	if !errors.Is(err, ErrTypeNotFound) {
		t.Errorf("error %v does not wrap ErrTypeNotFound", err)
	}
	if errors.Is(err, ErrNoImplementations) {
		t.Errorf("error %v wrongly wraps ErrNoImplementations", err)
	}
}

func TestCodeFootprint(t *testing.T) {
	r := NewRunner()
	// §4.2: the C version took 1984 bytes of opcode. Hand-written
	// assembly is tighter; sanity-bound it.
	if r.CodeBytes() < 100 || r.CodeBytes() > 1984 {
		t.Errorf("code bytes = %d, expected (0, 1984]", r.CodeBytes())
	}
	if r.Instructions()*4 != r.CodeBytes() {
		t.Error("CodeBytes must be 4× instruction count")
	}
	t.Logf("code: %d bytes (%d instructions)", r.CodeBytes(), r.Instructions())
}

func TestLayout(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	tree, supp, reqImg := mustImages(t, cb)
	lay := LayoutFor(tree, supp, reqImg)
	if lay.SuppBase != tree.Size() {
		t.Errorf("supp base = %d, want %d", lay.SuppBase, tree.Size())
	}
	if lay.ReqBase%4 != 0 {
		t.Error("request base must be word-aligned")
	}
	if lay.DataBytes != tree.Size()+supp.Size()+reqImg.Size() {
		t.Errorf("data bytes = %d", lay.DataBytes)
	}
	if lay.MemBytes <= lay.ReqBase+reqImg.Size() {
		t.Error("memory must cover all images")
	}
}

// TestThreeWayAgreement: hardware unit, software routine and fixed-point
// engine agree bit-exactly across randomized case bases — the §4.2
// "identical retrieval and similarity results for a selected set of test
// cases" claim, strengthened to randomized inputs.
func TestThreeWayAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	runner := NewRunner()
	for trial := 0; trial < 40; trial++ {
		cb, reg := randomCaseBase(r, 1+r.Intn(3), 1+r.Intn(8), 1+r.Intn(6), 8)
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		fe, err := retrieval.NewFixedEngine(cb)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fe.Retrieve(req)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := runner.Retrieve(cb, req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hw, err := hwsim.Retrieve(cb, req, hwsim.Config{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sw.ImplID != uint16(ref.Impl) || sw.Sim != ref.Similarity {
			t.Errorf("trial %d: sw (%d,%d) vs engine (%d,%d)",
				trial, sw.ImplID, sw.Sim, ref.Impl, ref.Similarity)
		}
		if hw.ImplID != sw.ImplID || hw.Sim != sw.Sim {
			t.Errorf("trial %d: hw (%d,%d) vs sw (%d,%d)",
				trial, hw.ImplID, hw.Sim, sw.ImplID, sw.Sim)
		}
	}
}

// TestSpeedupShape: at the same clock the hardware unit beats the
// software routine by roughly the paper's factor (§4.2 reports ≈8.5×).
func TestSpeedupShape(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	req := casebase.PaperRequest()
	runner := NewRunner()
	sw, err := runner.Retrieve(cb, req)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := hwsim.Retrieve(cb, req, hwsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(sw.Cycles) / float64(hw.Cycles)
	t.Logf("speedup at equal clock: %.2fx (sw %d cycles, hw %d cycles)",
		speedup, sw.Cycles, hw.Cycles)
	if speedup < 3 || speedup > 30 {
		t.Errorf("speedup %.2fx outside the plausible band around the paper's 8.5x", speedup)
	}
}

// --- helpers (mirrors the hwsim test generator) -----------------------

func mustImages(t *testing.T, cb *casebase.CaseBase) (tree, supp, req *memlist.Image) {
	t.Helper()
	tr, err := memlist.EncodeTree(cb)
	if err != nil {
		t.Fatal(err)
	}
	sp := memlist.EncodeSupplemental(cb.Registry())
	rq, err := memlist.EncodeRequest(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	return tr, sp, rq
}

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

func TestSoftwareNoImplementations(t *testing.T) {
	// A hand-crafted tree whose type 1 has an empty implementation
	// sub-list: the routine must report "no implementations" (best
	// stays -1) rather than fabricating a result.
	r := NewRunner()
	tree := &memlist.Image{Words: []uint16{
		1, 3, // type 1 → impl list at word 3
		memlist.EndMarker, // end of type list
		memlist.EndMarker, // empty impl list
	}}
	supp := &memlist.Image{Words: []uint16{memlist.EndMarker}}
	reqImg := &memlist.Image{Words: []uint16{1, memlist.EndMarker}}
	_, err := r.RetrieveImages(tree, supp, reqImg)
	if err == nil {
		t.Fatal("empty implementation list must error")
	}
	if !errors.Is(err, ErrNoImplementations) {
		t.Errorf("error %v does not wrap ErrNoImplementations", err)
	}
}

func TestSourceAssembles(t *testing.T) {
	// The published routine must assemble from scratch (guards against
	// drift between Source and the assembler grammar).
	if len(mb32.MustAssemble(Source)) == 0 {
		t.Fatal("empty program")
	}
}
