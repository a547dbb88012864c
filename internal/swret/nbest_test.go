package swret

import (
	"math/rand"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

func TestSWNBestPaperExample(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	res, err := r.RetrieveN(cb, casebase.PaperRequest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(res.Entries))
	}
	wantIDs := []uint16{2, 1, 3} // Table 1 order
	for i, w := range wantIDs {
		if res.Entries[i].ImplID != w {
			t.Errorf("entry %d = impl %d, want %d", i, res.Entries[i].ImplID, w)
		}
	}
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].Sim > res.Entries[i-1].Sim {
			t.Error("entries must be descending")
		}
	}
}

func TestSWNBestTruncatesToN(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	r := NewRunner()
	res, err := r.RetrieveN(cb, casebase.PaperRequest(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if res.Entries[0].ImplID != 2 || res.Entries[1].ImplID != 1 {
		t.Errorf("top-2 = %+v", res.Entries)
	}
	// n larger than the sub-list delivers everything.
	res5, err := r.RetrieveN(cb, casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res5.Entries) != 3 {
		t.Errorf("n=5 entries = %d, want 3", len(res5.Entries))
	}
}

func TestSWNBestValidation(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	r := NewRunner()
	if _, err := r.RetrieveN(cb, casebase.PaperRequest(), 0); err == nil {
		t.Error("n=0 must fail")
	}
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := r.RetrieveN(cb, bad, 3); err == nil {
		t.Error("invalid request must fail")
	}
}

func TestSWNBestAgreesWithSingleBest(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	r := NewRunner()
	single, err := r.Retrieve(cb, casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := r.RetrieveN(cb, casebase.PaperRequest(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Entries[0].ImplID != single.ImplID || nb.Entries[0].Sim != single.Sim {
		t.Errorf("n=1 (%+v) disagrees with single-best (%+v)", nb.Entries[0], single)
	}
}

// TestSWNBestMatchesFixedEngine is the cross-implementation property:
// the assembly insertion sort must reproduce the fixed engine's
// RetrieveN exactly, including tie ordering, across randomized inputs.
func TestSWNBestMatchesFixedEngine(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	runner := NewRunner()
	for trial := 0; trial < 40; trial++ {
		cb, reg := randomCaseBase(r, 2, 2+r.Intn(8), 1+r.Intn(5), 8)
		req := randomRequest(r, cb, reg, 1+r.Intn(4))
		n := 1 + r.Intn(6)
		fe, err := retrieval.NewFixedEngine(cb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fe.RetrieveN(req, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runner.RetrieveN(cb, req, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Entries) != len(want) {
			t.Fatalf("trial %d: %d entries, engine %d", trial, len(got.Entries), len(want))
		}
		for i := range want {
			if got.Entries[i].ImplID != uint16(want[i].Impl) || got.Entries[i].Sim != want[i].Similarity {
				t.Errorf("trial %d entry %d: sw (%d, %d) vs engine (%d, %d)",
					trial, i, got.Entries[i].ImplID, got.Entries[i].Sim,
					want[i].Impl, want[i].Similarity)
			}
		}
	}
}

func TestSWNBestCodeFootprint(t *testing.T) {
	nbestBytes := 4 * len(nbestProgram) // four opcode bytes per instruction
	if nbestBytes <= NewRunner().CodeBytes() {
		t.Error("n-best kernel should be larger than the single-best kernel")
	}
	if nbestBytes > 1984 {
		t.Errorf("n-best kernel %d bytes exceeds the paper's C footprint", nbestBytes)
	}
}
