package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

// mustFixedEngine builds the Q15 kernel over cb, failing the test if
// the compacted image does not fit.
func mustFixedEngine(t testing.TB, cb *casebase.CaseBase) *FixedEngine {
	t.Helper()
	fe, err := NewFixedEngine(cb)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

func TestFixedTableOne(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	fe := mustFixedEngine(t, cb)
	best, err := fe.Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if best.Impl != 2 {
		t.Errorf("fixed best = %d, want DSP (2)", best.Impl)
	}
	if math.Abs(best.Float()-0.96) > 0.01 {
		t.Errorf("fixed S = %v, want ≈0.96", best.Float())
	}
}

func TestFixedRetrieveNOrder(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	fe := mustFixedEngine(t, cb)
	got, err := fe.RetrieveN(casebase.PaperRequest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Impl != 2 || got[1].Impl != 1 || got[2].Impl != 3 {
		t.Errorf("order = %d,%d,%d, want 2,1,3", got[0].Impl, got[1].Impl, got[2].Impl)
	}
	if _, err := fe.RetrieveN(casebase.PaperRequest(), -1); err == nil {
		t.Error("negative n must error")
	}
}

func TestFixedRejectsInvalidRequest(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	fe := mustFixedEngine(t, cb)
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := fe.Retrieve(bad); err == nil {
		t.Error("unknown type must error")
	}
}

// randomCaseBase builds a randomized registry + case base with nTypes
// function types, implsPer implementations each, drawing attrsPer
// attributes from a universe of attrUniverse attribute types. Shared with
// the paper-scale experiments via this test helper pattern (package
// workload provides the production generator).
func randomCaseBase(r *rand.Rand, nTypes, implsPer, attrsPer, attrUniverse int) (*casebase.CaseBase, *attr.Registry) {
	reg := attr.NewRegistry()
	for i := 1; i <= attrUniverse; i++ {
		lo := attr.Value(r.Intn(50))
		hi := lo + attr.Value(1+r.Intn(200))
		reg.MustDefine(attr.Def{ID: attr.ID(i), Name: "a", Lo: lo, Hi: hi})
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
			b.AddImpl(casebase.TypeID(ti), casebase.Implementation{
				ID: casebase.ImplID(ii), Attrs: ps,
			})
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
	perm := r.Perm(len(ids))
	var cs []casebase.Constraint
	for _, i := range perm {
		if len(cs) == nConstraints {
			break
		}
		d, _ := reg.Lookup(ids[i])
		v := d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
		cs = append(cs, casebase.Constraint{ID: d.ID, Value: v})
	}
	return casebase.NewRequest(ft.ID, cs...).EqualWeights()
}

// TestFixedMatchesFloat is the paper's §4.2 accuracy claim as a property:
// across randomized case bases, the 16-bit fixed-point engine and the
// float64 engine must pick the same best implementation whenever the
// float ranking is unambiguous beyond fixed-point resolution.
func TestFixedMatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	agree, ambiguous := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		cb, reg := randomCaseBase(r, 3, 8, 5, 10)
		fe := mustFixedEngine(t, cb)
		e := NewEngine(cb, Options{})
		req := randomRequest(r, cb, reg, 4)

		all, err := e.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		fbest, err := fe.Retrieve(req)
		if err != nil {
			t.Fatal(err)
		}
		// Margin below which fixed point may legitimately disagree:
		// accumulated rounding is bounded by a few Q15 LSBs per
		// attribute.
		const margin = 6.0 / 32768
		if len(all) > 1 && all[0].Similarity-all[1].Similarity < margin {
			ambiguous++
			continue
		}
		if fbest.Impl == all[0].Impl {
			agree++
		} else {
			t.Errorf("trial %d: float best %d (S=%.6f), fixed best %d (S=%.6f)",
				trial, all[0].Impl, all[0].Similarity, fbest.Impl, fbest.Float())
		}
	}
	if agree == 0 {
		t.Fatal("no unambiguous trials — generator is broken")
	}
	t.Logf("agree=%d ambiguous=%d of %d", agree, ambiguous, trials)
}

// TestFixedSimilarityError bounds the absolute similarity error of the
// fixed engine against float64.
func TestFixedSimilarityError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		cb, reg := randomCaseBase(r, 1, 5, 4, 8)
		fe := mustFixedEngine(t, cb)
		e := NewEngine(cb, Options{})
		req := randomRequest(r, cb, reg, 3)
		all, _ := e.RetrieveAll(req)
		qs, err := fe.ScoreType(req)
		if err != nil {
			t.Fatal(err)
		}
		ft, _ := cb.Type(req.Type)
		for _, res := range all {
			i := slices.IndexFunc(ft.Impls, func(im casebase.Implementation) bool { return im.ID == res.Impl })
			if d := math.Abs(qs[i].Float() - res.Similarity); d > worst {
				worst = d
			}
		}
	}
	// Reciprocal rounding error scales with d/dmax ratios but stays
	// well below a percent for realistic attribute ranges.
	if worst > 0.01 {
		t.Errorf("worst fixed-vs-float similarity error = %v, want < 0.01", worst)
	}
	t.Logf("worst error = %.6f", worst)
}

// unsortRequest reverses the constraint order, bypassing the sorting
// NewRequest applies, to exercise the kernel's non-merge fallback.
// Validate still accepts such requests, so the engines must agree on
// them too.
func unsortRequest(req casebase.Request) casebase.Request {
	out := casebase.Request{Type: req.Type}
	for i := len(req.Constraints) - 1; i >= 0; i-- {
		out.Constraints = append(out.Constraints, req.Constraints[i])
	}
	return out
}

// TestCompactMatchesFixedBitIdentical is the differential gate for the
// compacted kernel: across randomized case bases and requests — sorted
// and unsorted constraint orders alike — it must return exactly the
// pointer-walking reference's result, bit for bit: same
// implementation, same Q15 similarity, same n-best ranking.
func TestCompactMatchesFixedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		cb, reg := randomCaseBase(r, 3, 8, 5, 10)
		fe, ce := newFixedReference(cb), mustFixedEngine(t, cb)
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		for _, rq := range []casebase.Request{req, unsortRequest(req)} {
			fbest, err := fe.Retrieve(rq)
			if err != nil {
				t.Fatal(err)
			}
			cbest, err := ce.Retrieve(rq)
			if err != nil {
				t.Fatal(err)
			}
			if fbest != cbest {
				t.Fatalf("trial %d: fixed %+v, compact %+v", trial, fbest, cbest)
			}
			fn, err := fe.RetrieveN(rq, 5)
			if err != nil {
				t.Fatal(err)
			}
			cn, err := ce.RetrieveN(rq, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fn, cn) {
				t.Fatalf("trial %d: n-best diverges:\nfixed   %+v\ncompact %+v", trial, fn, cn)
			}
		}
	}
	// Tie-rich bases with sparse IDs, missing attributes, zero weights
	// and invalid requests: answers and error texts must match.
	for trial := 0; trial < trials; trial++ {
		cb, reg := tieCaseBase(r)
		fe, ce := newFixedReference(cb), mustFixedEngine(t, cb)
		req := tieRequest(r, cb, reg)
		fbest, ferr := fe.Retrieve(req)
		cbest, cerr := ce.Retrieve(req)
		if fbest != cbest || fmt.Sprint(ferr) != fmt.Sprint(cerr) {
			t.Fatalf("tie trial %d: fixed %+v (%v), compact %+v (%v)", trial, fbest, ferr, cbest, cerr)
		}
		for _, n := range []int{0, 1, 3} {
			fn, ferr := fe.RetrieveN(req, n)
			cn, cerr := ce.RetrieveN(req, n)
			if !reflect.DeepEqual(fn, cn) || fmt.Sprint(ferr) != fmt.Sprint(cerr) {
				t.Fatalf("tie trial %d n=%d:\nfixed   %+v (%v)\ncompact %+v (%v)", trial, n, fn, ferr, cn, cerr)
			}
		}
	}
}

// TestCompactScoreTypeMatchesFixedScores pins the per-implementation
// Q15 column, not just the winner: every score in storage order must be
// bit-identical to the reference's Score on the corresponding variant.
func TestCompactScoreTypeMatchesFixedScores(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		cb, reg := randomCaseBase(r, 2, 6, 4, 8)
		fe, ce := newFixedReference(cb), mustFixedEngine(t, cb)
		req := randomRequest(r, cb, reg, 3)
		qs, err := ce.ScoreType(req)
		if err != nil {
			t.Fatal(err)
		}
		ft, _ := cb.Type(req.Type)
		if len(qs) != len(ft.Impls) {
			t.Fatalf("scored %d impls, type has %d", len(qs), len(ft.Impls))
		}
		for i := range ft.Impls {
			if want := fe.Score(&ft.Impls[i], req); qs[i] != want {
				t.Fatalf("trial %d impl %d: compact %d, fixed %d", trial, ft.Impls[i].ID, qs[i], want)
			}
		}
	}
}

// TestCompactEngineValidation checks the kernel's rejection paths.
func TestCompactEngineValidation(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	ce := mustFixedEngine(t, cb)
	if _, err := ce.Retrieve(casebase.Request{Type: 99}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := ce.Retrieve(casebase.Request{Type: 1}); err == nil {
		t.Error("empty constraint list accepted")
	}
	if _, err := ce.RetrieveN(casebase.PaperRequest(), 0); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestNewFixedEngineRejectsOversizedImage: a 64×64×16 case base (the
// perfbench scan_large shape) needs more than 2^16 words of compacted
// image, which the hardware cannot address. Construction must fail
// with memlist's error instead of building extents from wrapped 16-bit
// offsets.
func TestNewFixedEngineRejectsOversizedImage(t *testing.T) {
	cb, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 64, ImplsPerType: 64, AttrsPerImpl: 16, AttrUniverse: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFixedEngine(cb)
	if err == nil {
		t.Fatal("oversized case base accepted")
	}
	if fe != nil {
		t.Error("engine returned alongside the error")
	}
	if !strings.HasPrefix(err.Error(), "memlist: compact") {
		t.Errorf("error %q is not memlist's", err)
	}
}
