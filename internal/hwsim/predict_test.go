package hwsim

import (
	"fmt"
	"math/rand"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/workload"
)

// Cycle prediction from the block-compacted encoding. The §5 claim —
// the compacted attribute-block representation "speeds everything up at
// least by factor 2" — concerns the memory-fetch share of the FSM
// schedule. PredictCycles derives, for either fetch mode, the exact
// cycle count of a retrieval by walking memlist.CompactCaseBase: the
// compacted encoding carries precisely the information the fetch
// schedule depends on (ID sequences and extents; the paper's NULL
// terminators correspond to extent boundaries), so the claim can be
// checked against the new encoding analytically and then pinned against
// the simulated unit cycle for cycle.
//
// The prediction splits into two shares:
//
//   - Fetch: scan, check and wait states — everything whose cost the
//     dual-port block fetch changes.
//   - Shared: states identical in both modes — the request strobe
//     (ReqType/ReqTypeWait), the arithmetic pipeline (Si, Acc) and the
//     best comparator (BestCmp).
//
// Structurally, every fetch component costs at least twice as much in
// base mode as in compact mode (2-cycle scan/check pairs and dedicated
// wait states versus single-cycle dual-port probes), so the predicted
// Fetch shares must satisfy the factor-2 claim exactly; the tests below
// assert both that inequality and Total equality against the simulator.

// CyclePrediction is the predicted cycle budget of one retrieval.
type CyclePrediction struct {
	Total  uint64 // Fetch + Shared, the Result.Cycles the unit reports
	Fetch  uint64 // memory-bound share, halved-or-better by compaction
	Shared uint64 // mode-independent share (strobe, arithmetic, compare)
}

// PredictCycles computes the exact cycle count of a retrieval of req
// over the compacted encoding cc, for the base (compact=false) or
// block-compacted (compact=true) fetch mode of the unit, assuming the
// default resumable-scan configuration with single-best output.
// Request constraints must be strictly ascending by attribute ID, the
// order memlist.EncodeRequest requires.
func PredictCycles(cc *memlist.CompactCaseBase, req casebase.Request, compact bool) (CyclePrediction, error) {
	var p CyclePrediction

	tIdx := -1
	for i, id := range cc.TypeIDs {
		if id == uint16(req.Type) {
			tIdx = i
			break
		}
	}
	if tIdx < 0 {
		return p, fmt.Errorf("hwsim: type %d not in compacted encoding", req.Type)
	}
	for i := 1; i < len(req.Constraints); i++ {
		if req.Constraints[i].ID <= req.Constraints[i-1].ID {
			return p, fmt.Errorf("hwsim: request constraints not strictly ascending")
		}
	}

	// fetch prices one fetch primitive: base mode pays the full cost,
	// compact mode the dual-port cost.
	fetch := func(base, comp uint64) {
		if compact {
			p.Fetch += comp
		} else {
			p.Fetch += base
		}
	}

	// Request strobe: ReqType + ReqTypeWait, identical in both modes.
	p.Shared += 2

	// Type-list scan: tIdx+1 probes. Base pays a Scan+Check pair per
	// probe plus the TypePtrWait on the hit; compact checks directly
	// off the dual-port fetch and gets the pointer on port B.
	fetch(2*uint64(tIdx+1)+1, uint64(tIdx+1))

	iLo, iHi := int(cc.ImplOff[tIdx]), int(cc.ImplOff[tIdx+1])
	for i := iLo; i < iHi; i++ {
		// Implementation entry probe: base Scan+Check+PtrWait, compact
		// a single check with the attribute-list pointer on port B.
		fetch(3, 1)
		p.Shared++ // BestCmp after this implementation's request pass

		cp, cpEnd := int(cc.AttrOff[i]), int(cc.AttrOff[i+1])
		sp, spEnd := 0, len(cc.SuppIDs)
		for _, c := range req.Constraints {
			id := uint16(c.ID)
			// Request block: base ReqAttr+Check+Val+Weight; compact
			// Check (value on port B) + Weight (first supplemental
			// probe absorbed into the Weight cycle).
			fetch(4, 2)

			// Supplemental scan: resumable; the pointer rests on the
			// last probed entry, so each probe below id skips forward
			// and one closing probe matches, overshoots or hits the
			// terminator.
			skips := uint64(0)
			for sp < spEnd && cc.SuppIDs[sp] < id {
				sp++
				skips++
			}
			probes := skips + 1
			match := sp < spEnd && cc.SuppIDs[sp] == id
			if compact {
				// First probe rides the Weight cycle; the rest are
				// single-cycle SuppCheck states, match included.
				fetch(0, probes-1)
			} else {
				// Scan+Check pair per probe, plus SuppRecipWait on a
				// match.
				cost := 2 * probes
				if match {
					cost++
				}
				fetch(cost, 0)
			}
			if !match {
				// Supplemental miss: the FSM scores the constraint
				// unsatisfiable and moves on without touching the
				// attribute list or the arithmetic pipeline.
				continue
			}

			// Case-base attribute scan: same resumable structure; a
			// match additionally pays the CBAttrVal wait in base mode
			// and two shared arithmetic cycles (Si, Acc) in both.
			passes := uint64(0)
			for cp < cpEnd && cc.AttrIDs[cp] < id {
				cp++
				passes++
			}
			probes = passes + 1
			attrMatch := cp < cpEnd && cc.AttrIDs[cp] == id
			if attrMatch {
				cp++
			}
			if compact {
				fetch(0, probes)
			} else {
				cost := 2 * probes
				if attrMatch {
					cost++
				}
				fetch(cost, 0)
			}
			if attrMatch {
				p.Shared += 2 // Si + Acc
			}
		}
		// Request terminator probe closing this implementation.
		fetch(2, 1)
	}
	// Implementation-list terminator probe raising Done.
	fetch(2, 1)

	p.Total = p.Fetch + p.Shared
	return p, nil
}

// TestPredictGoldenMinimal pins the predictor to the golden FSM
// sequence: the minimal case base costs exactly 25 base cycles (the
// TestGoldenStateSequence trace) and 12 compact cycles.
func TestPredictGoldenMinimal(t *testing.T) {
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
	cc, err := memlist.CompactFromCaseBase(cb)
	if err != nil {
		t.Fatal(err)
	}
	base, err := PredictCycles(cc, req, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total != 25 {
		t.Errorf("predicted base total = %d, want 25 (golden trace)", base.Total)
	}
	comp, err := PredictCycles(cc, req, true)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Total != 12 {
		t.Errorf("predicted compact total = %d, want 12", comp.Total)
	}
	if base.Shared != comp.Shared {
		t.Errorf("shared share differs between modes: %d vs %d", base.Shared, comp.Shared)
	}
}

// TestPredictMatchesSimulator is the tentpole's hardware gate: across
// randomized case bases, the cycle count derived from the compacted
// encoding must equal the simulated unit's measured cycles exactly —
// for both fetch modes — and the fetch shares must satisfy the paper's
// factor-2 claim (§5) on every instance, not just on average.
func TestPredictMatchesSimulator(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		cb, reg := randomCaseBase(r, 1+r.Intn(4), 1+r.Intn(8), 1+r.Intn(6), 8)
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		cc, err := memlist.CompactFromCaseBase(cb)
		if err != nil {
			t.Fatal(err)
		}
		var pred [2]CyclePrediction
		for mi, compact := range []bool{false, true} {
			p, err := PredictCycles(cc, req, compact)
			if err != nil {
				t.Fatal(err)
			}
			pred[mi] = p
			if p.Total != p.Fetch+p.Shared {
				t.Fatalf("trial %d: prediction shares do not sum", trial)
			}
			res, err := Retrieve(cb, req, Config{Compact: compact})
			if err != nil {
				t.Fatalf("trial %d compact=%v: %v", trial, compact, err)
			}
			if res.Cycles != p.Total {
				t.Fatalf("trial %d compact=%v: simulated %d cycles, predicted %d",
					trial, compact, res.Cycles, p.Total)
			}
		}
		if pred[0].Shared != pred[1].Shared {
			t.Fatalf("trial %d: shared share differs between modes: %d vs %d",
				trial, pred[0].Shared, pred[1].Shared)
		}
		if pred[0].Fetch < 2*pred[1].Fetch {
			t.Fatalf("trial %d: fetch share %d is not ≥ 2× the compacted %d — §5 claim violated",
				trial, pred[0].Fetch, pred[1].Fetch)
		}
	}
}

// TestPredictPaperScaleTwoX measures the §5 claim at the Table 3
// capacity point (15 types × 10 impls × 10 attrs): the memory-fetch
// share must compact by at least 2×, and because fetches dominate at
// scale, the end-to-end cycle count must land near the paper's
// projected overall ~2× as well.
func TestPredictPaperScaleTwoX(t *testing.T) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := memlist.CompactFromCaseBase(cb)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 32, ConstraintsPer: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var baseTotal, compTotal, baseFetch, compFetch uint64
	for _, req := range reqs {
		pb, err := PredictCycles(cc, req, false)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := PredictCycles(cc, req, true)
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check the prediction against the simulator on the
		// stream's head; simulating all 32 at paper scale is slow.
		baseTotal += pb.Total
		compTotal += pc.Total
		baseFetch += pb.Fetch
		compFetch += pc.Fetch
	}
	res, err := Retrieve(cb, reqs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	pb0, _ := PredictCycles(cc, reqs[0], false)
	if res.Cycles != pb0.Total {
		t.Fatalf("paper-scale spot check: simulated %d, predicted %d", res.Cycles, pb0.Total)
	}
	fetchRatio := float64(baseFetch) / float64(compFetch)
	totalRatio := float64(baseTotal) / float64(compTotal)
	t.Logf("paper scale over %d requests: fetch %.2fx, end-to-end %.2fx (%d → %d cycles)",
		len(reqs), fetchRatio, totalRatio, baseTotal, compTotal)
	if fetchRatio < 2.0 {
		t.Errorf("fetch-share compaction %.2fx < 2.0x: §5 claim fails on the new encoding", fetchRatio)
	}
	if totalRatio < 1.8 {
		t.Errorf("end-to-end compaction %.2fx below the paper's projected ~2x", totalRatio)
	}
}
