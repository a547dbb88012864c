package appapi

import (
	"errors"
	"testing"

	"qosalloc/internal/alloc"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
)

// manager builds a manager on a 1-slot FPGA, a DSP and a GPP whose
// engine rejects results below similarity th.
func manager(t *testing.T, th float64) *alloc.Manager {
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
	}, 66)
	dsp := device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	return alloc.New(retrieval.NewEngine(cb, retrieval.Options{Threshold: th}), rtsys.NewSystem(repo, fpga, dsp, gpp), alloc.Options{})
}

func TestCallPlacesDirectly(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	c, err := s.Call(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if c.Impl != 2 || c.Device != "dsp0" {
		t.Errorf("call = %+v", c)
	}
	if len(c.Trail) != 1 || c.Trail[0].Outcome != OutcomePlaced {
		t.Errorf("trail = %+v", c.Trail)
	}
	if c.Relaxations != 0 {
		t.Error("no relaxation expected")
	}
	if s.Live() != 1 {
		t.Error("call must be live")
	}
	if err := s.Release(c); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Error("release must drop the call")
	}
	if err := s.Release(c); err == nil {
		t.Error("double release must fail")
	}
}

func TestCallNegotiatesThreshold(t *testing.T) {
	// Threshold 0.97 rejects even the DSP variant (0.96). Relaxing the
	// sample-rate constraint lifts the DSP variant to (1+1)/2 = 1.0.
	m := manager(t, 0.97)
	s := NewSession(m, "mp3", 5, Options{
		RelaxOrder: []attr.ID{casebase.AttrSampleRate, casebase.AttrOutputMode},
	})
	c, err := s.Call(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if c.Relaxations != 1 {
		t.Errorf("relaxations = %d, want 1", c.Relaxations)
	}
	if len(c.Trail) != 2 {
		t.Fatalf("trail = %+v", c.Trail)
	}
	if c.Trail[0].Outcome != OutcomeBelowThreshold || c.Trail[0].Relaxed != casebase.AttrSampleRate {
		t.Errorf("round 0 = %+v", c.Trail[0])
	}
	if c.Trail[1].Outcome != OutcomePlaced {
		t.Errorf("round 1 = %+v", c.Trail[1])
	}
	if c.Similarity < 0.97 {
		t.Errorf("final similarity %v below threshold", c.Similarity)
	}
}

func TestCallFailsWhenExhausted(t *testing.T) {
	m := manager(t, 1.1) // unreachable
	s := NewSession(m, "mp3", 5, Options{
		RelaxOrder: []attr.ID{casebase.AttrSampleRate},
	})
	_, err := s.Call(casebase.PaperRequest())
	var nf *ErrNegotiationFailed
	if !errors.As(err, &nf) {
		t.Fatalf("want ErrNegotiationFailed, got %v", err)
	}
	// Trail: initial round (relaxed sample-rate) + relaxed round
	// (no further relaxation available).
	if len(nf.Trail) != 2 {
		t.Fatalf("trail = %+v", nf.Trail)
	}
	if nf.Trail[1].Relaxed != 0 {
		t.Error("final round must not relax further")
	}
	if nf.Error() == "" {
		t.Error("error must render")
	}
}

func TestCallNegotiatesInfeasible(t *testing.T) {
	// Platform with only a tiny GPP: the paper request's DSP/FPGA
	// variants cannot place; the GPP variant scores 0.43 which passes
	// (no threshold) but needs 700 permille — feasible. To force an
	// infeasible round, occupy the GPP first.
	cb, _ := casebase.PaperCaseBase()
	repo := device.NewRepository(20)
	_ = repo.PopulateFromCaseBase(cb)
	gpp := device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024)
	m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), rtsys.NewSystem(repo, gpp), alloc.Options{})
	s := NewSession(m, "a", 5, Options{})
	first, err := s.Call(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Call(casebase.PaperRequest())
	var nf *ErrNegotiationFailed
	if !errors.As(err, &nf) {
		t.Fatalf("want ErrNegotiationFailed, got %v", err)
	}
	if nf.Trail[0].Outcome != OutcomeInfeasible {
		t.Errorf("outcome = %v", nf.Trail[0].Outcome)
	}
	if len(nf.Trail[0].Alternatives) == 0 {
		t.Error("alternatives must be carried in the trail")
	}
	// After releasing, the call succeeds again.
	if err := s.Release(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(casebase.PaperRequest()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionClose(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	if _, err := s.Call(casebase.PaperRequest()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(casebase.PaperRequest()); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 2 {
		t.Fatalf("live = %d", s.Live())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Error("close must release everything")
	}
	if s.App() != "mp3" {
		t.Error("app name lost")
	}
}

func TestCallPropagatesValidationErrors(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := s.Call(bad); err == nil {
		t.Error("invalid request must fail without negotiation")
	}
	var nf *ErrNegotiationFailed
	if errors.As(func() error { _, err := s.Call(bad); return err }(), &nf) {
		t.Error("validation errors are not negotiation failures")
	}
}
