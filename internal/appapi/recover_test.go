package appapi

import (
	"testing"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
)

func TestAbsorbRecoveryDegraded(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	c, err := s.Call(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if c.Device != "dsp0" {
		t.Fatalf("call = %+v, want dsp0", c)
	}
	if _, err := m.System().FailDevice("dsp0"); err != nil {
		t.Fatal(err)
	}
	recs := m.RecoverFromFaults()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d", len(recs))
	}
	if !s.AbsorbRecovery(recs[0]) {
		t.Fatal("recovery belongs to this session")
	}
	// The call handle now reflects the substitute variant.
	if c.Impl != 1 || c.Device != "fpga0" || c.Degradations != 1 {
		t.Errorf("call after recovery = %+v", c)
	}
	last := c.Trail[len(c.Trail)-1]
	if last.Outcome != OutcomeDegraded || last.Degradation == nil {
		t.Errorf("trail step = %+v", last)
	}
	if last.Degradation.FromImpl != 2 || last.Degradation.ToImpl != 1 {
		t.Errorf("degradation = %+v", last.Degradation)
	}
	// The call is still live and releasable.
	if s.Live() != 1 {
		t.Errorf("live = %d", s.Live())
	}
	if err := s.Release(c); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorbRecoveryRejected(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	c, err := s.Call(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []device.ID{"dsp0", "fpga0", "gpp0"} {
		if _, err := m.System().FailDevice(name); err != nil {
			t.Fatal(err)
		}
	}
	recs := m.RecoverFromFaults()
	if len(recs) != 1 || recs[0].Report == nil {
		t.Fatalf("recoveries = %+v", recs)
	}
	if !s.AbsorbRecovery(recs[0]) {
		t.Fatal("recovery belongs to this session")
	}
	last := c.Trail[len(c.Trail)-1]
	if last.Outcome != OutcomeFaultRejected || last.Report == nil {
		t.Errorf("trail step = %+v", last)
	}
	// A rejected call is dead: no longer live, double release refused.
	if s.Live() != 0 {
		t.Errorf("live = %d", s.Live())
	}
	if err := s.Release(c); err == nil {
		t.Error("releasing a fault-rejected call must fail")
	}
	// Close has nothing left to do.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorbRecoveryForeignTask(t *testing.T) {
	m := manager(t, 0)
	s := NewSession(m, "mp3", 5, Options{})
	if s.AbsorbRecovery(alloc.Recovery{Task: 999}) {
		t.Error("unknown task cannot belong to this session")
	}
}
