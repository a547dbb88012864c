package hwsim

import (
	"math/rand"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

func runNBest(t *testing.T, cb *casebase.CaseBase, req casebase.Request, n int) (*Unit, Result) {
	t.Helper()
	u, err := Build(cb, req, Config{NBest: n})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	return u, res
}

func TestNBestPaperExample(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	u, res := runNBest(t, cb, casebase.PaperRequest(), 3)
	top := u.TopN()
	if len(top) != 3 {
		t.Fatalf("TopN = %d entries, want 3", len(top))
	}
	// Table 1 order: DSP (2), FPGA (1), GP-Proc (3).
	wantIDs := []uint16{2, 1, 3}
	for i, w := range wantIDs {
		if top[i].ImplID != w {
			t.Errorf("TopN[%d] = impl %d, want %d", i, top[i].ImplID, w)
		}
	}
	for i := 1; i < len(top); i++ {
		if top[i].Sim > top[i-1].Sim {
			t.Error("TopN must be descending")
		}
	}
	if res.ImplID != 2 || res.Sim != top[0].Sim {
		t.Errorf("Result (%d, %d) must mirror TopN[0] (%d, %d)",
			res.ImplID, res.Sim, top[0].ImplID, top[0].Sim)
	}
}

func TestNBestSingleFallback(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	u, res := runNBest(t, cb, casebase.PaperRequest(), 1)
	top := u.TopN()
	if len(top) != 1 || top[0].ImplID != res.ImplID {
		t.Errorf("NBest=1 TopN = %+v", top)
	}
}

func TestNBestFewerImplsThanN(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	u, _ := runNBest(t, cb, casebase.PaperRequest(), 10)
	if got := len(u.TopN()); got != 3 {
		t.Errorf("TopN with n>impls = %d entries, want 3", got)
	}
}

// TestNBestMatchesFixedEngine: the hardware register file must agree
// with the fixed engine's RetrieveN across randomized inputs, including
// tie ordering.
func TestNBestMatchesFixedEngine(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		cb, reg := randomCaseBase(r, 2, 2+r.Intn(8), 1+r.Intn(5), 8)
		req := randomRequest(r, cb, reg, 1+r.Intn(4))
		n := 1 + r.Intn(5)
		fe, err := retrieval.NewFixedEngine(cb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fe.RetrieveN(req, n)
		if err != nil {
			t.Fatal(err)
		}
		u, err := Build(cb, req, Config{NBest: n})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := u.Run(1 << 22); err != nil {
			t.Fatal(err)
		}
		got := u.TopN()
		if n == 1 {
			// single-best path
			if got[0].ImplID != uint16(want[0].Impl) || got[0].Sim != want[0].Similarity {
				t.Errorf("trial %d: n=1 mismatch", trial)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: TopN %d entries, engine %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ImplID != uint16(want[i].Impl) || got[i].Sim != want[i].Similarity {
				t.Errorf("trial %d entry %d: hw (%d, %d) vs engine (%d, %d)",
					trial, i, got[i].ImplID, got[i].Sim, want[i].Impl, want[i].Similarity)
			}
		}
	}
}

func TestNBestCycleOverheadModest(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	_, single := runNBest(t, cb, casebase.PaperRequest(), 1)
	_, triple := runNBest(t, cb, casebase.PaperRequest(), 3)
	if triple.Cycles <= single.Cycles {
		t.Error("n-best bookkeeping must cost something")
	}
	// At most n+1 extra cycles per implementation (3 impls here).
	if triple.Cycles > single.Cycles+3*4 {
		t.Errorf("n-best overhead too high: %d vs %d", triple.Cycles, single.Cycles)
	}
	t.Logf("single %d cycles, 3-best %d cycles", single.Cycles, triple.Cycles)
}
