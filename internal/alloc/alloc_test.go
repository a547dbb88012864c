package alloc

import (
	"errors"
	"math"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/learn"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// platform builds the fig. 1 style test system: 2-slot FPGA, DSP, GPP.
func platform(t *testing.T, opt Options) (*Manager, *rtsys.System) {
	t.Helper()
	return thresholdPlatform(t, 0, opt)
}

// thresholdPlatform is platform with a manager whose engine rejects
// results below similarity th.
func thresholdPlatform(t *testing.T, th float64, opt Options) (*Manager, *rtsys.System) {
	t.Helper()
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	repo := device.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		t.Fatal(err)
	}
	fpga := device.NewFPGA("fpga0", []device.Slot{
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
		{Slices: 1500, BRAMs: 8, Multipliers: 16},
	}, 66)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	sys := rtsys.NewSystem(repo, fpga, dsp, gpp)
	return New(retrieval.NewEngine(cb, retrieval.Options{Threshold: th}), sys, opt), sys
}

func TestRequestPicksTableOneBest(t *testing.T) {
	m, _ := platform(t, Options{})
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 2 || d.Target != casebase.TargetDSP || d.Device != "dsp0" {
		t.Errorf("decision = %+v, want DSP impl 2 on dsp0", d)
	}
	if math.Abs(d.Similarity-0.96) > 0.01 {
		t.Errorf("similarity = %v", d.Similarity)
	}
	if d.ViaToken {
		t.Error("first call cannot be a token hit")
	}
	if d.ReadyAt == 0 {
		t.Error("ready time must reflect opcode loading")
	}
	st := m.Stats()
	if st.Requests != 1 || st.Placed != 1 || st.Retrievals != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFallbackToSecondBestWhenDSPFull(t *testing.T) {
	m, _ := platform(t, Options{})
	// Saturate the DSP with two 450-permille loads.
	for i := 0; i < 2; i++ {
		if _, err := m.Request("mp3", casebase.PaperRequest(), 5); err != nil {
			t.Fatal(err)
		}
	}
	// Third request: DSP variant infeasible → second-best (FPGA, 0.85).
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 1 || d.Target != casebase.TargetFPGA {
		t.Errorf("fallback decision = %+v, want FPGA impl 1", d)
	}
	if math.Abs(d.Similarity-0.85) > 0.01 {
		t.Errorf("fallback similarity = %v", d.Similarity)
	}
}

func TestThresholdRejection(t *testing.T) {
	m, _ := thresholdPlatform(t, 0.99, Options{})
	_, err := m.Request("mp3", casebase.PaperRequest(), 5)
	var nm *retrieval.ErrNoMatch
	if !errors.As(err, &nm) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
	if m.Stats().Rejected != 1 {
		t.Error("rejection not counted")
	}
}

func TestRelaxedRequestAdmitsLowVariant(t *testing.T) {
	// §3: "the application has to repeat its request with rather
	// relaxed constraints giving a chance to the third low performance
	// implementation."
	m, _ := thresholdPlatform(t, 0.5, Options{})
	req := casebase.PaperRequest()
	// With threshold 0.5 the GP-Proc variant (0.43) is rejected; relax
	// the sample-rate constraint and it scores 1/3·(0.11+0.66)→ no,
	// relaxing bitwidth: (0.66+0.51)/2 ≈ 0.59 — above threshold.
	relaxed, ok := req.Relax(casebase.AttrBitwidth)
	if !ok {
		t.Fatal("relax failed")
	}
	all, err := m.Engine().RetrieveAll(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	var gpp float64
	for _, r := range all {
		if r.Impl == 3 {
			gpp = r.Similarity
		}
	}
	if gpp < 0.5 {
		t.Fatalf("relaxed GP-Proc similarity = %v, expected above threshold", gpp)
	}
}

func TestNoFeasibleOffersAlternatives(t *testing.T) {
	// Tiny platform: only a GPP, so FPGA/DSP variants can never place;
	// saturate the GPP, then ask again.
	cb, _ := casebase.PaperCaseBase()
	repo := device.NewRepository(20)
	_ = repo.PopulateFromCaseBase(cb)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	sys := rtsys.NewSystem(repo, gpp)
	m := New(retrieval.NewEngine(cb, retrieval.Options{}), sys, Options{})

	if _, err := m.Request("a", casebase.PaperRequest(), 5); err != nil {
		t.Fatal(err) // takes the GP-Proc variant (700 permille)
	}
	_, err := m.Request("b", casebase.PaperRequest(), 5)
	var nf *ErrNoFeasible
	if !errors.As(err, &nf) {
		t.Fatalf("want ErrNoFeasible, got %v", err)
	}
	if len(nf.Alternatives) == 0 {
		t.Error("alternatives must be offered")
	}
	if nf.Error() == "" {
		t.Error("error must render")
	}
	if m.Stats().Infeasible != 1 {
		t.Error("infeasible not counted")
	}
}

func TestPreemptionEvictsLowerPriority(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	repo := device.NewRepository(20)
	_ = repo.PopulateFromCaseBase(cb)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 500, 128*1024)
	sys := rtsys.NewSystem(repo, dsp)
	m := New(retrieval.NewEngine(cb, retrieval.Options{}), sys, Options{AllowPreemption: true, NBest: 1})

	low, err := m.Request("bg", casebase.PaperRequest(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Second request at higher priority: DSP full (450/500), preempt.
	high, err := m.Request("fg", casebase.PaperRequest(), 9)
	if err != nil {
		t.Fatalf("preemptive place failed: %v", err)
	}
	if len(high.Preempted) != 1 || high.Preempted[0] != low.Task.ID {
		t.Errorf("preempted = %v, want [%d]", high.Preempted, low.Task.ID)
	}
	if low.Task.State != rtsys.Preempted {
		t.Errorf("victim state = %v", low.Task.State)
	}
	if m.Stats().Preemptions != 1 {
		t.Error("preemption not counted")
	}
	// Equal priority must NOT preempt.
	if _, err := m.Request("fg2", casebase.PaperRequest(), 9); err == nil {
		t.Error("equal-priority preemption must fail")
	}
	// After the high task finishes, the victim returns via
	// ReplacePending.
	if err := m.Release(high.Task.ID); err != nil {
		t.Fatal(err)
	}
	if n := m.ReplacePending(); n != 1 {
		t.Errorf("ReplacePending = %d, want 1", n)
	}
	if low.Task.State != rtsys.Configuring {
		t.Errorf("victim state after recovery = %v", low.Task.State)
	}
}

func TestBypassTokens(t *testing.T) {
	m, _ := platform(t, Options{UseBypassTokens: true})
	req := casebase.PaperRequest()
	d1, err := m.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(d1.Task.ID); err != nil {
		t.Fatal(err)
	}
	d2, err := m.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.ViaToken {
		t.Error("second identical request should hit the bypass token")
	}
	if d2.Impl != d1.Impl {
		t.Error("token must pin the same implementation")
	}
	st := m.Stats()
	if st.TokenHits != 1 {
		t.Errorf("token hits = %d", st.TokenHits)
	}
	// Retrieval ran only once.
	if st.Retrievals != 1 {
		t.Errorf("retrievals = %d, want 1", st.Retrievals)
	}
	// A case-base update drops every token.
	if n := m.tokens.Len(); n != 1 {
		t.Errorf("%d tokens, want 1", n)
	}
	m.tokens.InvalidateAll()
	d3, err := m.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ViaToken {
		t.Error("invalidated token must not hit")
	}
}

// TestRequestStoresNoTokenWhenOff pins that a manager with bypass
// tokens off keeps none: nothing would ever read them.
func TestRequestStoresNoTokenWhenOff(t *testing.T) {
	m, _ := platform(t, Options{})
	for i := 0; i < 2; i++ {
		if _, err := m.Request("mp3", casebase.PaperRequest(), 5); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.tokens.Len(); n != 0 {
		t.Errorf("tokens off, yet %d tokens stored", n)
	}
}

// TestPreemptiveRequestStoresToken pins that a Request placed by
// preemption still pins its choice when bypass tokens are on.
func TestPreemptiveRequestStoresToken(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	repo := device.NewRepository(20)
	_ = repo.PopulateFromCaseBase(cb)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 500, 128*1024)
	m := New(retrieval.NewEngine(cb, retrieval.Options{}), rtsys.NewSystem(repo, dsp), Options{UseBypassTokens: true, AllowPreemption: true, NBest: 1})
	req := casebase.PaperRequest()
	if _, err := m.Request("bg", req, 1); err != nil {
		t.Fatal(err)
	}
	m.tokens.InvalidateAll()
	high, err := m.Request("fg", req, 9)
	if err != nil {
		t.Fatalf("preemptive place failed: %v", err)
	}
	if len(high.Preempted) != 1 {
		t.Fatalf("preempted = %v, want one victim", high.Preempted)
	}
	tok, ok := m.tokens.Lookup(retrieval.Hash(req), req)
	if !ok || tok.Impl != high.Impl || tok.Similarity != high.Similarity {
		t.Errorf("token after preemptive place = %+v, %v; want impl %d", tok, ok, high.Impl)
	}
}

func TestTokenFallsBackWhenVariantBusy(t *testing.T) {
	m, _ := platform(t, Options{UseBypassTokens: true})
	req := casebase.PaperRequest()
	// Two DSP placements exhaust the DSP; the token points at the DSP
	// variant but the third call must fall back to retrieval and the
	// FPGA variant.
	if _, err := m.Request("a", req, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Request("b", req, 5); err != nil {
		t.Fatal(err)
	}
	d, err := m.Request("c", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.ViaToken || d.Target != casebase.TargetFPGA {
		t.Errorf("busy-token fallback = %+v", d)
	}
}

func TestUpdateCaseBaseSwapsTreeAndDropsTokens(t *testing.T) {
	m, _ := platform(t, Options{UseBypassTokens: true})
	req := casebase.PaperRequest()
	d1, err := m.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(d1.Task.ID); err != nil {
		t.Fatal(err)
	}
	if m.tokens.Len() == 0 {
		t.Fatal("token should be cached")
	}
	// A commit retires the DSP variant at run time; the manager swaps
	// in the rebuilt tree.
	b := learn.NewBuilder(m.Engine().CaseBase())
	if err := b.Retire(casebase.TypeFIREqualizer, 2); err != nil {
		t.Fatal(err)
	}
	cb2, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateCaseBase(retrieval.NewEngine(cb2, retrieval.Options{}))
	if m.tokens.Len() != 0 {
		t.Error("tokens must be invalidated on case-base update")
	}
	d2, err := m.Request("mp3", req, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Impl == 2 {
		t.Error("retired variant must not be selected")
	}
	if d2.ViaToken {
		t.Error("stale token must not hit after update")
	}
	if d2.Impl != 1 || d2.Target != casebase.TargetFPGA {
		t.Errorf("post-update decision = %+v, want FPGA impl 1", d2)
	}
}

func TestReleaseUnknownTask(t *testing.T) {
	m, _ := platform(t, Options{})
	if err := m.Release(999); err == nil {
		t.Error("unknown task must fail")
	}
}

func TestRequestInvalidType(t *testing.T) {
	m, _ := platform(t, Options{})
	bad := casebase.NewRequest(77, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := m.Request("x", bad, 5); err == nil {
		t.Error("invalid request must fail")
	}
}

func TestPowerWeightPrefersLowPowerVariant(t *testing.T) {
	// The FPGA variant (310 mW) tops Table 1's DSP variant (220 mW)
	// only when similarity is all that counts. A strong power weight
	// must flip a near-tie; here DSP already wins on similarity, so
	// check the GPP variant (150 mW) overtakes under an extreme weight.
	m, _ := platform(t, Options{PowerWeight: 5})
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Scores: DSP 0.96-5*0.22=-0.14, FPGA 0.85-5*0.31=-0.70,
	// GPP 0.43-5*0.15=-0.32 → DSP still first, GPP second, FPGA last.
	if d.Impl != 2 {
		t.Errorf("impl = %d, want DSP still first at weight 5", d.Impl)
	}
	// Saturate the DSP; the power-aware fallback must now be the GPP
	// variant (not the FPGA one the pure ranking would pick).
	if _, err := m.Request("b", casebase.PaperRequest(), 5); err != nil {
		t.Fatal(err)
	}
	d3, err := m.Request("c", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Target != casebase.TargetGPP {
		t.Errorf("power-aware fallback = %v, want GP-Proc", d3.Target)
	}
}

func TestPlaceCandidatesMatchesRequest(t *testing.T) {
	// PlaceCandidates with the engine's own N-best list must reach the
	// same decision as the fused Request path — the contract the serve
	// layer's sharded retrieval relies on.
	m, _ := platform(t, Options{})
	req := casebase.PaperRequest()
	candidates, err := m.Engine().RetrieveN(req, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.PlaceCandidates("mp3", req, candidates, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Impl != 2 || d.Target != casebase.TargetDSP || d.Device != "dsp0" {
		t.Errorf("decision = %+v, want DSP impl 2 on dsp0", d)
	}
	st := m.Stats()
	if st.Requests != 1 || st.Placed != 1 {
		t.Errorf("stats = %+v, want 1 request / 1 placed", st)
	}
	// The caller retrieved, so the caller owns any token: the
	// manager's cache stays empty.
	if n := m.tokens.Len(); n != 0 {
		t.Errorf("PlaceCandidates stored %d bypass tokens, want 0", n)
	}
	// An empty candidate list is a structured infeasibility.
	_, err = m.PlaceCandidates("mp3", req, nil, 5)
	var nf *ErrNoFeasible
	if !errors.As(err, &nf) {
		t.Errorf("empty candidates = %v, want ErrNoFeasible", err)
	}
}
